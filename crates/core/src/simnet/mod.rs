//! Deterministic fault-injection harness (simnet).
//!
//! FoundationDB-style simulation testing for the two-level stack: seeded
//! chaos schedules drive a full MinBFT cluster, the per-node intrusion
//! recovery controllers and (optionally) the global replication controller
//! through partitions, loss/delay storms, crashes, Byzantine flips,
//! intrusion bursts, membership churn and client bursts — while invariant
//! oracles check the correctness claims of Proposition 1 after every step.
//!
//! The pipeline:
//!
//! 1. `schedule` — [`FaultSchedule::generate`] draws a schedule from a
//!    seed and a [`ScheduleConfig`] (same seed → same schedule).
//! 2. `group` — the **group executor**: everything one MinBFT group does
//!    under its schedule (fault application, supervisor bookkeeping, IDS
//!    sampling, the per-group [`oracle`] checks, byte-exact
//!    [`TraceRecord`]s, settle-phase recoveries, outcome aggregation).
//! 3. [`sharded`] — the one **driver** over it, [`run_sharded_schedule`]:
//!    S groups behind a key router from split RNG streams of one seed,
//!    routed `Put` pools or the open-loop trace [`workload`], the fleet
//!    control plane with its global recovery budget, cross-shard MultiPut
//!    chaos, data-plane autotune, and the routing and atomicity oracles.
//!    Shards free-run between deterministic fleet barriers on the worker
//!    pool; the report is byte-identical for every worker count. A single
//!    group is a one-shard fleet: [`ShardedScheduleConfig::single_group`]
//!    with [`ShardedFaultSchedule::single_group`], whose shard-0 schedule
//!    is `FaultSchedule::generate(seed, base)`.
//! 4. [`oracle`] — agreement, validity, recovery-bound, network-accounting
//!    and (in the settle phase) liveness checks; routing for fleets.
//! 5. `shrink` — on violation, one greedy drop-one-event search
//!    minimizes the schedules and emits a replayable
//!    [`ShardedCounterexample`] (seed + schedules + config as JSON).
//! 6. [`scenario`] — [`ShardedSimnetScenario`] is a configuration as a
//!    [`Scenario`](crate::runtime::Scenario) value; handing it to
//!    [`Runner::run_seeds`](crate::runtime::Runner::run_seeds) is the one
//!    way to sweep fault intensity over seeds like any other grid axis.
//! 7. [`adversary`] — the adversary zoo: protocol-aware attacker replicas
//!    ([`FaultEvent::AdoptAttacker`]) crossed with network conditions
//!    including partial synchrony (GST schedules with the
//!    liveness-after-GST oracle), as the [`adversary_matrix`] of
//!    [`adversary_config`] / [`adversary_sharded_config`] cells.

pub mod adversary;
pub(crate) mod group;
pub mod oracle;
pub mod scenario;
pub(crate) mod schedule;
pub mod sharded;
pub(crate) mod shrink;
pub mod workload;

pub use adversary::{
    adversary_config, adversary_matrix, adversary_sharded_config, NetworkCondition,
};
pub use group::{SimnetOutcome, TraceRecord};
pub use oracle::{InvariantKind, Violation};
pub use scenario::ShardedSimnetScenario;
pub use schedule::{FaultEvent, FaultKind, FaultSchedule, ScheduleConfig, ScheduledFault};
pub use sharded::{
    fleet_scale_config, load_swing_config, run_sharded_schedule, run_sharded_schedule_on,
    sharded_chaos_4_config, sharded_fleet_controlled_config, sharded_multiput_config,
    AutotuneTickRecord, ShardedFaultSchedule, ShardedRunReport, ShardedScheduleConfig,
};
pub use shrink::{find_sharded_counterexample, ShardedCounterexample};

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Serialize, Value};

    /// A single group under `base` and its schedule for `seed`.
    fn single_group(
        seed: u64,
        base: ScheduleConfig,
    ) -> (ShardedFaultSchedule, ShardedScheduleConfig) {
        let config = ShardedScheduleConfig::single_group(base);
        (ShardedFaultSchedule::single_group(seed, &config), config)
    }

    #[test]
    fn quiet_schedule_passes_all_oracles() {
        let (schedule, config) = single_group(
            1,
            ScheduleConfig {
                horizon: 12,
                intensity: 0.0,
                ..ScheduleConfig::default()
            },
        );
        assert!(schedule.shards[0].events.is_empty());
        let report = run_sharded_schedule(&schedule, &config).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.outcome.completed > 0);
        assert!(report.outcome.availability > 0.0);
        assert_eq!(report.trace[0].len(), 13); // horizon steps + settle record
    }

    #[test]
    fn a_single_group_seed_keeps_its_schedule() {
        let base = ScheduleConfig {
            intensity: 0.5,
            ..ScheduleConfig::default()
        };
        let (schedule, _) = single_group(11, base.clone());
        assert_eq!(schedule.seed, 11);
        assert_eq!(schedule.shards, vec![FaultSchedule::generate(11, &base)]);
    }

    #[test]
    fn same_seed_produces_byte_identical_traces() {
        let (schedule, config) = single_group(
            11,
            ScheduleConfig {
                horizon: 20,
                intensity: 0.5,
                ..ScheduleConfig::default()
            },
        );
        let a = run_sharded_schedule(&schedule, &config).unwrap();
        let b = run_sharded_schedule(&schedule, &config).unwrap();
        let json_a = serde_json::to_string(&a.trace).unwrap();
        let json_b = serde_json::to_string(&b.trace).unwrap();
        assert_eq!(json_a, json_b);
        assert_eq!(a, b);
    }

    #[test]
    fn injected_double_commit_is_caught_and_shrinks() {
        let (schedule, config) = single_group(
            5,
            ScheduleConfig {
                horizon: 16,
                intensity: 0.3,
                inject_double_commit_at: Some(6),
                ..ScheduleConfig::default()
            },
        );
        let counterexample = find_sharded_counterexample(&schedule, &config)
            .unwrap()
            .expect("the injected bug must be caught");
        assert_eq!(counterexample.violation.kind, InvariantKind::Agreement);
        // The minimal schedule keeps the injection and little else.
        let events = &counterexample.schedule.shards[0].events;
        assert!(events
            .iter()
            .any(|e| e.event.kind() == FaultKind::InjectDoubleCommit));
        assert!(events.len() <= schedule.shards[0].events.len());
        // Round trip through JSON and replay.
        let json = counterexample.to_json().unwrap();
        let back = ShardedCounterexample::from_json(&json).unwrap();
        let replayed = back.replay().unwrap().expect("replay must violate again");
        assert_eq!(replayed.kind, InvariantKind::Agreement);
    }

    /// The object at `path` below `value`; a numeric step indexes an array.
    fn at<'a>(value: &'a Value, path: &[&str]) -> &'a [(String, Value)] {
        match (value, path) {
            (Value::Object(entries), []) => entries,
            (Value::Object(entries), [head, rest @ ..]) => at(
                &entries.iter().find(|(k, _)| k == head).expect("path").1,
                rest,
            ),
            (Value::Array(items), [head, rest @ ..]) => {
                at(&items[head.parse::<usize>().expect("index")], rest)
            }
            _ => panic!("expected an object above {path:?}"),
        }
    }

    /// `value` without the entry `key` of the object at `path`.
    fn without(value: &Value, path: &[&str], key: &str) -> Value {
        let step = |here: &str, v: &Value| match path {
            [head, rest @ ..] if here == *head => without(v, rest, key),
            _ => v.clone(),
        };
        match (value, path) {
            (Value::Object(entries), []) => {
                Value::Object(entries.iter().filter(|(k, _)| k != key).cloned().collect())
            }
            (Value::Object(entries), _) => Value::Object(
                entries
                    .iter()
                    .map(|(k, v)| (k.clone(), step(k, v)))
                    .collect(),
            ),
            (Value::Array(items), [_, ..]) => Value::Array(
                items
                    .iter()
                    .enumerate()
                    .map(|(i, v)| step(&i.to_string(), v))
                    .collect(),
            ),
            _ => panic!("expected an object above {path:?}"),
        }
    }

    /// Removes each key of the object at `path` in turn: the document must
    /// still decode — to `optional`'s value for that key, everything else
    /// unchanged — exactly when `optional` lists the key.
    fn assert_optional_keys(
        document: &Value,
        decode: fn(&str) -> crate::Result<Value>,
        path: &[&str],
        optional: &[(&str, Value)],
    ) {
        for (key, _) in at(document, path) {
            let stripped = without(document, path, key);
            let decoded = decode(&serde_json::to_string(&stripped).unwrap());
            match optional.iter().find(|(name, _)| name == key) {
                Some((_, default)) => {
                    let back =
                        decoded.unwrap_or_else(|e| panic!("{path:?}.{key} is optional: {e}"));
                    let filled = at(&back, path).iter().find(|(k, _)| k == key);
                    assert_eq!(filled.map(|(_, v)| v), Some(default), "{path:?}.{key}");
                    assert_eq!(without(&back, path, key), stripped, "{path:?}.{key}");
                }
                None => assert!(decoded.is_err(), "{path:?}.{key} is required"),
            }
        }
    }

    fn synthetic_violation() -> Violation {
        Violation {
            kind: InvariantKind::Agreement,
            step: 3,
            detail: "synthetic".into(),
        }
    }

    fn synthetic_counterexample() -> ShardedCounterexample {
        let config = ShardedScheduleConfig {
            workload: Some(workload::TraceWorkloadConfig::default()),
            autotune: Some(crate::controlplane::autotune::AutotuneConfig::default()),
            ..ShardedScheduleConfig::default()
        };
        ShardedCounterexample {
            seed: 4,
            schedule: ShardedFaultSchedule::generate(4, &config),
            config,
            violation: synthetic_violation(),
        }
    }

    #[test]
    fn exactly_the_attributed_document_fields_are_optional() {
        // The knobs added after counterexamples were first emitted, and
        // what a document that predates them means.
        let late_knobs = [
            ("checkpoint_period", Value::U64(100)),
            ("batch_size", Value::U64(1)),
            ("pipeline_window", Value::U64(0)),
            ("gst", Value::Null),
            ("post_gst_liveness_steps", Value::U64(12)),
            ("attackers", Value::Array(Vec::new())),
        ];
        let document = synthetic_counterexample().to_value();
        let decode = |json: &str| ShardedCounterexample::from_json(json).map(|c| c.to_value());
        assert_optional_keys(&document, decode, &[], &[]);
        assert_optional_keys(
            &document,
            decode,
            &["config"],
            &[
                ("fleet_tick_interval", Value::U64(1)),
                ("workload", Value::Null),
                ("autotune", Value::Null),
            ],
        );
        assert_optional_keys(&document, decode, &["config", "base"], &late_knobs);
        assert_optional_keys(&document, decode, &["config", "base", "network"], &[]);
        assert_optional_keys(&document, decode, &["schedule"], &[]);
        assert_optional_keys(&document, decode, &["schedule", "shards", "0"], &[]);
        assert_optional_keys(&document, decode, &["violation"], &[]);
        // Inside the two late-added blocks every field falls back to the
        // block's `Default` (which is what this document holds).
        for block in ["workload", "autotune"] {
            let path = ["config", block];
            let every_key: Vec<(&str, Value)> = at(&document, &path)
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            assert_optional_keys(&document, decode, &path, &every_key);
        }
    }

    #[test]
    fn hand_edits_a_derive_cannot_see_are_still_rejected() {
        let counterexample = synthetic_counterexample();
        let json = counterexample.to_json().unwrap();
        assert_eq!(
            ShardedCounterexample::from_json(&json).unwrap(),
            counterexample
        );
        let error = |json: String| {
            ShardedCounterexample::from_json(&json)
                .unwrap_err()
                .to_string()
        };
        // The schedule's seed is what a replay uses: a top-level seed that
        // disagrees would silently describe a different run.
        let mismatch = error(json.replacen("\"seed\": 4", "\"seed\": 5", 1));
        assert!(mismatch.contains("disagrees"), "{mismatch}");
        // Well-typed but out of range: an error here, not a panic in replay.
        let lossy = error(json.replace("\"loss_rate\": 0.0005", "\"loss_rate\": 1.5"));
        assert!(lossy.contains("invalid network config"), "{lossy}");
        // Corrupted artifacts error too, however deep the garbage nests.
        assert!(ShardedCounterexample::from_json(&"[".repeat(200_000)).is_err());
    }
}
