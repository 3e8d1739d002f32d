//! The metric and workload registry, and what one run of one workload
//! reports.
//!
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`tolerance-benchmark manifest`) and a unit test keeps the two equal, so
//! a metric cannot be printed under a name the manifest does not register.

use crate::stats::valid_name;
use serde::Value;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, costs).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `second` is than `first`, as a share of `first`
    /// (negative when it got better).
    pub fn worsening(self, first: f64, second: f64) -> f64 {
        if first == 0.0 {
            return if second == first { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (second - first) / first.abs(),
            Better::Higher => (first - second) / first.abs(),
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// The name it is printed and registered under.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
    /// Whether the value is a count that repeats exactly for one seed on
    /// one host size (the behaviour fingerprint `repeat` compares).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The five workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "channel-kv",
        "4 replicas on in-process channels, 16 closed-loop clients, batch 16: the CPU-bound commit path; minbft and transport do the work, wire and socket none",
    ),
    (
        "socket-kv",
        "the identical service and op streams over loopback TCP: same minbft work, but wire codec and socket hops dominate; with channel-kv it isolates the socket gap",
    ),
    (
        "sim-sweep",
        "232 seeded fleet simulations per pass under the full oracle suite: scheduler, oracles, SimNetwork and the fault paths of minbft, with no threads or sockets",
    ),
    (
        "live-intrusion",
        "the paper's scenario on the live plane: scripted compromises and a crash while both control levels recover, evict and join; timer-paced, so CPU changes should not move it",
    ),
    (
        "paper-eval",
        "Algorithm 1 with four optimizers and incremental pruning, the Algorithm 2 LP at three sizes and the Table-7 grid: the pomdp, optim and emulation code the others barely touch",
    ),
];

/// What a user of the system feels. Every workload reports every one of
/// them (see the README for what an "operation" is on each workload).
///
/// The bounds are the largest the contract allows. One bound per metric
/// has to hold on every workload and across the time between two sets of
/// runs, and the reference host — a 2-vCPU virtual machine — drifts by
/// 10–25 % over tens of minutes (see the README). Mean latency is not an
/// end-to-end metric for the same reason: on four of the five workloads it
/// is the reciprocal of the throughput, and a "lower is better" reciprocal
/// reads a 22 % slowdown of the host as 28 % worse, so it would only
/// tighten the throughput bound from 25 % to 20 %. It is reported per layer
/// (`client.latency_mean_ms`), where on `live-intrusion` it carries
/// information of its own.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
];

/// Single-layer measurements of the traced run. Report-only: no bound. A
/// layer a workload does not touch reports 0 on that workload.
pub const PER_LAYER: &[MetricDef] = &[
    // Client-side view of the request workloads: the mean on all three,
    // the percentiles where the public API exposes the samples (the two
    // key-value workloads).
    layer("client.latency_mean_ms", "ms", Lower),
    layer("client.latency_p50_ms", "ms", Lower),
    layer("client.latency_p99_ms", "ms", Lower),
    layer("client.latency_samples", "count", Higher),
    layer("client.retransmit_suspects", "count", Lower),
    // wire: the codec, on hand-built messages of the shapes socket-kv sends.
    layer("wire.encode_ns.request", "ns", Lower),
    layer("wire.encode_ns.reply", "ns", Lower),
    layer("wire.encode_ns.commit", "ns", Lower),
    layer("wire.encode_ns.prepare16", "ns", Lower),
    layer("wire.encode_ns.state_transfer", "ns", Lower),
    layer("wire.decode_ns.request", "ns", Lower),
    layer("wire.decode_ns.reply", "ns", Lower),
    layer("wire.decode_ns.commit", "ns", Lower),
    layer("wire.decode_ns.prepare16", "ns", Lower),
    layer("wire.decode_ns.state_transfer", "ns", Lower),
    exact("wire.frame_bytes.request", "bytes", Lower),
    exact("wire.frame_bytes.reply", "bytes", Lower),
    exact("wire.frame_bytes.commit", "bytes", Lower),
    exact("wire.frame_bytes.prepare16", "bytes", Lower),
    exact("wire.frame_bytes.state_transfer", "bytes", Lower),
    // socket: loopback TCP transport.
    layer("socket.hop_us", "us", Lower),
    layer("socket.msgs_per_req", "1/req", Lower),
    layer("socket.dropped", "count", Lower),
    layer("socket.decode_errors", "count", Lower),
    layer("socket.reconnects", "count", Lower),
    layer("socket.drain_s", "s", Lower),
    layer("socket.shutdown_s", "s", Lower),
    // transport / threaded: the in-process channel plane.
    layer("transport.hop_us", "us", Lower),
    layer("transport.msgs_per_req", "1/req", Lower),
    layer("transport.dropped", "count", Lower),
    layer("threaded.shutdown_s", "s", Lower),
    // minbft: the protocol on the simulated cluster, single-threaded.
    layer("minbft.cpu_us_per_req", "us", Lower),
    exact("minbft.sim_msgs_per_req", "1/req", Lower),
    exact("minbft.retained_log_max", "count", Lower),
    layer("usig.create_ui_ns", "ns", Lower),
    layer("usig.verify_ns", "ns", Lower),
    layer("metrics.hist_record_ns", "ns", Lower),
    layer("metrics.hist_quantile_ns", "ns", Lower),
    // simnet: the fleet simulator; the counts are the behaviour fingerprint.
    layer("simnet.schedule_generate_us", "us", Lower),
    layer("simnet.run_us_per_shard_step.fleet16", "us", Lower),
    layer("simnet.run_us_per_shard_step.controlled", "us", Lower),
    layer("simnet.run_us_per_shard_step.swing", "us", Lower),
    exact("simnet.trace_bytes_per_step", "bytes", Lower),
    exact("simnet.issued.fleet16", "count", Higher),
    exact("simnet.issued.controlled", "count", Higher),
    exact("simnet.issued.swing", "count", Higher),
    exact("simnet.completed.fleet16", "count", Higher),
    exact("simnet.completed.controlled", "count", Higher),
    exact("simnet.completed.swing", "count", Higher),
    exact("simnet.recoveries.fleet16", "count", Lower),
    exact("simnet.recoveries.controlled", "count", Lower),
    exact("simnet.recoveries.swing", "count", Lower),
    exact("simnet.committed_sequences", "count", Higher),
    exact("simnet.mean_recovery_steps", "steps", Lower),
    exact("simnet.availability", "ratio", Higher),
    exact("simnet.multiputs_committed", "count", Higher),
    // controlplane: the two-level controllers.
    layer("controlplane.tick_us", "us", Lower),
    layer("controlplane.recovery_mean_ms", "ms", Lower),
    layer("controlplane.recoveries", "count", Lower),
    layer("controlplane.evictions", "count", Lower),
    layer("controlplane.joins", "count", Lower),
    layer("controlplane.unrecovered", "count", Lower),
    layer("controlplane.final_replicas", "count", Higher),
    // pomdp / alg1 / alg2 / emulation / runtime: the paper's algorithms.
    layer("pomdp.belief_update_ns", "ns", Lower),
    layer("pomdp.ip_backup_ms", "ms", Lower),
    layer("alg1.cem_s", "s", Lower),
    layer("alg1.de_s", "s", Lower),
    layer("alg1.bo_s", "s", Lower),
    layer("alg1.spsa_s", "s", Lower),
    layer("alg1.ip_s", "s", Lower),
    exact("alg1.objective.cem", "cost", Lower),
    exact("alg1.objective.de", "cost", Lower),
    exact("alg1.objective.bo", "cost", Lower),
    exact("alg1.objective.spsa", "cost", Lower),
    layer("alg2.lp_s.smax16", "s", Lower),
    layer("alg2.lp_s.smax64", "s", Lower),
    layer("alg2.lp_s.smax128", "s", Lower),
    layer("emulation.grid_s", "s", Lower),
    layer("emulation.steps_per_s", "1/s", Higher),
    exact("emulation.availability.tolerance", "ratio", Higher),
    layer("runtime.grid_parallel_speedup", "ratio", Higher),
    // Derived attribution of a socket-kv request, printed with its bases.
    layer("attribution.wire_pct", "%", Lower),
    layer("attribution.hop_pct", "%", Lower),
    layer("attribution.mix_residual", "1/req", Lower),
    // The run itself: CPU seconds (user + system, every thread) per
    // operation over the timed repetitions, and the process's resident-set
    // high-water mark. Both include the load generator.
    layer("process.cpu_us_per_op", "us", Lower),
    layer("process.peak_rss_mb", "MB", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("host.threads", "count", Higher),
];

/// The registered definition of `name`, end-to-end or per-layer.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
}

/// Whether `name` is one of the five workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(workload, _)| *workload == name)
}

/// One correctness gate of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The evidence (counts, the first offender).
    pub detail: String,
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Metric values by registered name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The correctness gates, in the order they were checked.
    pub gates: Vec<Gate>,
    /// Free-form lines printed with the metrics (sample counts, bases of
    /// derived ratios).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `value` under the registered metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not registered: printing an unregistered metric
    /// is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = metric_def(name).unwrap_or_else(|| panic!("metric {name} is not registered"));
        self.metrics.insert(def.name, value);
    }

    /// Records a correctness gate.
    pub fn gate(&mut self, name: &str, ok: bool, detail: String) {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Whether every gate held and every reported value is finite.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|gate| gate.ok) && self.metrics.values().all(|v| v.is_finite())
    }

    /// The result object the contract asks for on the last line of standard
    /// output: with tracing off every end-to-end metric, with tracing on
    /// every per-layer metric (0 for a layer the workload does not touch).
    pub fn result_value(&self, traced: bool) -> Value {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let metrics = metrics_object(defs, |name| self.metrics.get(name).copied());
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), metrics),
        ])
    }
}

/// `{name: {"value": v, "unit": u}}` for every metric of `defs`, 0 where
/// `value_of` has none (a layer the workload does not touch).
pub fn metrics_object(defs: &[MetricDef], value_of: impl Fn(&str) -> Option<f64>) -> Value {
    Value::Object(
        defs.iter()
            .map(|def| {
                (
                    def.name.to_string(),
                    Value::Object(vec![
                        (
                            "value".into(),
                            Value::F64(value_of(def.name).unwrap_or(0.0)),
                        ),
                        ("unit".into(), Value::Str(def.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Looks `key` up in a JSON object.
fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
fn number(value: &Value) -> Option<f64> {
    match value {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// A run's result line read back: `(correct, attempted, failed, metrics)`.
pub fn parse_result_line(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let value = serde_json::parse_value(line).ok()?;
    let correct = matches!(field(&value, "correct")?, Value::Bool(true));
    let attempted = number(field(&value, "attempted")?)? as u64;
    let failed = number(field(&value, "failed")?)? as u64;
    let Value::Object(entries) = field(&value, "metrics")? else {
        return None;
    };
    let metrics = entries
        .iter()
        .map(|(name, metric)| Some((name.clone(), number(field(metric, "value")?)?)))
        .collect::<Option<BTreeMap<_, _>>>()?;
    Some((correct, attempted, failed, metrics))
}

/// How long one driver-invoked run measures. Sized so that the slowest
/// workload's whole process (warm-up, repetitions, probes) ends well inside
/// the share of the contract's time cap one run may take.
pub const RUN_SECONDS: u64 = 15;

/// The content of `BENCHMARK.json`.
///
/// # Panics
///
/// Panics if the registry breaks a limit of the contract: a manifest that
/// would be refused must not be printed.
pub fn manifest() -> Value {
    if let Err(violation) = validate_registry() {
        panic!("the metric registry breaks the contract: {violation}");
    }
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::Str((*s).into())).collect());
    let metric = |def: &MetricDef| {
        let mut entries = vec![
            ("name".to_string(), Value::Str(def.name.into())),
            ("unit".to_string(), Value::Str(def.unit.into())),
            ("better".to_string(), Value::Str(def.better.as_str().into())),
        ];
        if let Some(bound) = def.bound {
            entries.push(("bound".to_string(), Value::F64(bound)));
        }
        Value::Object(entries)
    };
    Value::Object(vec![
        (
            "command".into(),
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strings(&["benchmark"])),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Object(vec![
                            ("name".into(), Value::Str((*name).into())),
                            ("why".into(), Value::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer".into(),
            Value::Array(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// Checks the registry against the contract's limits; returns the first
/// violation.
pub fn validate_registry() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|def| def.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("illegal name {name:?}"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} is used twice"));
        }
    }
    for (name, why) in WORKLOADS {
        if why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "the why of {name} is not one line of at most 200 characters"
            ));
        }
    }
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        if def.unit.is_empty() || def.unit.len() > 16 || !def.unit.chars().all(legal) {
            return Err(format!("illegal unit {:?} of {}", def.unit, def.name));
        }
    }
    for def in END_TO_END {
        match def.bound {
            Some(bound) if bound > 0.0 && bound <= 0.25 => {}
            other => {
                return Err(format!(
                    "bound {other:?} of {} is outside (0, 0.25]",
                    def.name
                ))
            }
        }
    }
    let setup = END_TO_END.iter().find(|def| def.name == "setup_s");
    if !matches!(setup, Some(def) if def.unit == "s" && def.better == Lower) {
        return Err("setup_s (s, lower) must be an end-to-end metric".into());
    }
    if END_TO_END.len() > 16 || PER_LAYER.len() > 128 || !(2..=8).contains(&WORKLOADS.len()) {
        return Err("too many metrics or workloads".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_meets_the_contract_limits() {
        assert_eq!(validate_registry(), Ok(()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_the_rendered_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let parsed = serde_json::parse_value(&on_disk).expect("BENCHMARK.json parses");
        // Compare through the renderer: the parser reads `15` back as an
        // unsigned integer and `0.25` as a float, exactly as `manifest`
        // builds them.
        assert_eq!(
            serde_json::to_string(&parsed).unwrap(),
            serde_json::to_string(&manifest()).unwrap(),
            "regenerate BENCHMARK.json with `tolerance-benchmark manifest`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn the_result_line_round_trips_through_the_vendored_json() {
        let mut outcome = Outcome {
            attempted: 1_000,
            failed: 0,
            ..Outcome::default()
        };
        outcome.set("setup_s", 0.000_812_7);
        outcome.set("throughput_per_s", 70_123.456_789);
        outcome.gate("consistent", true, String::new());
        let line = serde_json::to_string(&outcome.result_value(false)).unwrap();
        let (correct, attempted, failed, metrics) = parse_result_line(&line).expect("parses");
        assert!(correct);
        assert_eq!((attempted, failed), (1_000, 0));
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"], 0.000_812_7);
        assert_eq!(metrics["throughput_per_s"], 70_123.456_789);
        // Every per-layer metric is present in a traced result, 0 where the
        // workload did not touch the layer.
        outcome.set("wire.frame_bytes.request", 131.0);
        let traced = serde_json::to_string(&outcome.result_value(true)).unwrap();
        let (_, _, _, layers) = parse_result_line(&traced).expect("parses");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert_eq!(layers["wire.frame_bytes.request"], 131.0);
        assert_eq!(layers["socket.hop_us"], 0.0);
    }

    #[test]
    fn a_failed_gate_or_a_nan_makes_the_outcome_incorrect() {
        let mut outcome = Outcome::default();
        outcome.set("setup_s", 1.0);
        assert!(outcome.correct());
        outcome.gate("zero drops", false, "3 dropped".into());
        assert!(!outcome.correct());
        let mut nan = Outcome::default();
        nan.set("alg1.objective.cem", f64::NAN);
        assert!(!nan.correct());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(Lower.worsening(10.0, 11.0), 0.1);
        assert_eq!(Lower.worsening(10.0, 9.0), -0.1);
        assert_eq!(Higher.worsening(10.0, 9.0), 0.1);
        assert_eq!(Higher.worsening(0.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn an_unregistered_metric_cannot_be_reported() {
        Outcome::default().set("made.up", 1.0);
    }
}
