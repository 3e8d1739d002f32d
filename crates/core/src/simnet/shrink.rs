//! Greedy schedule shrinking and replayable counterexamples.
//!
//! When an oracle fires, the harness minimizes the offending schedule by
//! greedy drop-one-event search: repeatedly try removing a single event and
//! keep the removal whenever the *same invariant* still breaks. The result,
//! together with the seed and the full run configuration, is packaged as a
//! [`Counterexample`] that serializes to JSON — reproducing a failure is
//! one `Counterexample::from_json(..).replay()` away.

use crate::error::{CoreError, Result};
use crate::simnet::executor::run_schedule;
use crate::simnet::oracle::Violation;
use crate::simnet::schedule::{FaultSchedule, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// A minimal, replayable description of an invariant violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counterexample {
    /// The seed of the run (drives schedule generation and execution).
    pub seed: u64,
    /// The full run configuration.
    pub config: ScheduleConfig,
    /// The (shrunk) schedule that still triggers the violation.
    pub schedule: FaultSchedule,
    /// The violation observed when executing the schedule.
    pub violation: Violation,
}

/// Renders a counterexample document (either kind) as pretty JSON.
pub(crate) fn document_to_json<T: Serialize>(document: &T) -> Result<String> {
    serde_json::to_string_pretty(document)
        .map_err(|e| CoreError::Solver(format!("serialize counterexample: {e}")))
}

impl Counterexample {
    /// Serializes the counterexample to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer failures.
    pub fn to_json(&self) -> Result<String> {
        document_to_json(self)
    }

    /// Parses a counterexample from JSON (the inverse of
    /// [`Counterexample::to_json`]).
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a document that does not describe a
    /// counterexample.
    pub fn from_json(json: &str) -> Result<Self> {
        let (seed, config, schedule, violation) =
            decode::document(json, decode::config, decode::schedule, |s| s.seed)?;
        Ok(Counterexample {
            seed,
            config,
            schedule,
            violation,
        })
    }

    /// Re-executes the stored schedule and returns the violation the replay
    /// produces (which, for a valid counterexample, matches `violation`).
    ///
    /// # Errors
    ///
    /// Propagates harness construction failures.
    pub fn replay(&self) -> Result<Option<Violation>> {
        Ok(run_schedule(&self.schedule, &self.config)?.violation)
    }
}

/// The greedy drop-one-event search behind both shrinkers: repeatedly try
/// removing a single event from any of the schedule's `groups` and keep
/// the removal whenever `run` still breaks the same invariant kind as
/// `violation`. Shrinks `schedule` in place and returns the violation the
/// minimal schedule produces.
pub(crate) fn shrink_greedy<S>(
    schedule: &mut S,
    violation: &Violation,
    groups: fn(&mut S) -> &mut [FaultSchedule],
    run: impl Fn(&S) -> Result<Option<Violation>>,
) -> Result<Violation> {
    let mut current = violation.clone();
    let mut improved = true;
    while improved {
        improved = false;
        for group in 0..groups(schedule).len() {
            let mut index = 0;
            while index < groups(schedule)[group].events.len() {
                let removed = groups(schedule)[group].events.remove(index);
                match run(schedule)? {
                    Some(v) if v.kind == current.kind => {
                        // Do not advance: the next event shifted into
                        // `index`.
                        current = v;
                        improved = true;
                    }
                    _ => {
                        groups(schedule)[group].events.insert(index, removed);
                        index += 1;
                    }
                }
            }
        }
    }
    Ok(current)
}

/// Greedy drop-one-event minimization: returns the smallest schedule (under
/// single-event removals) that still violates the same invariant kind as
/// `violation`, plus the violation it produces.
///
/// # Errors
///
/// Propagates harness construction failures.
pub fn shrink_schedule(
    schedule: &FaultSchedule,
    config: &ScheduleConfig,
    violation: &Violation,
) -> Result<(FaultSchedule, Violation)> {
    let mut minimal = schedule.clone();
    let violation = shrink_greedy(&mut minimal, violation, std::slice::from_mut, |candidate| {
        Ok(run_schedule(candidate, config)?.violation)
    })?;
    Ok((minimal, violation))
}

/// Hand-written decoder for the counterexample JSON document. The vendored
/// `serde` shim only derives serialization, so the document is read back by
/// destructuring the parsed [`serde::Value`] tree, mirroring the shim's
/// encoding conventions (structs → objects, unit enum variants → strings,
/// data-carrying variants → single-key objects, `Option::None` → null).
pub(crate) mod decode {
    use crate::error::{CoreError, Result};
    use crate::simnet::oracle::{InvariantKind, Violation};
    use crate::simnet::schedule::{
        FaultEvent, FaultKind, FaultSchedule, ScheduleConfig, ScheduledFault,
    };
    use serde::Value;
    use tolerance_consensus::{AttackerKind, ByzantineMode, NetworkConfig, NodeId};

    pub(crate) fn error(detail: impl Into<String>) -> CoreError {
        CoreError::Solver(format!("decode counterexample: {}", detail.into()))
    }

    pub(crate) fn field<'a>(value: &'a Value, name: &str) -> Result<&'a Value> {
        let Value::Object(entries) = value else {
            return Err(error(format!("expected an object with field `{name}`")));
        };
        entries
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, v)| v)
            .ok_or_else(|| error(format!("missing field `{name}`")))
    }

    pub(crate) fn opt_field<'a>(value: &'a Value, name: &str) -> Option<&'a Value> {
        let Value::Object(entries) = value else {
            return None;
        };
        entries.iter().find(|(key, _)| key == name).map(|(_, v)| v)
    }

    /// A knob added after counterexamples were first emitted: an absent
    /// field decodes to `default`, so archived documents stay replayable.
    pub(crate) fn or_default<T>(
        value: &Value,
        name: &str,
        decode: fn(&Value) -> Result<T>,
        default: T,
    ) -> Result<T> {
        opt_field(value, name).map_or(Ok(default), decode)
    }

    /// An `Option` field: absent or `null` is `None`.
    pub(crate) fn nullable<T>(
        value: Option<&Value>,
        decode: impl Fn(&Value) -> Result<T>,
    ) -> Result<Option<T>> {
        match value {
            Some(Value::Null) | None => Ok(None),
            Some(v) => decode(v).map(Some),
        }
    }

    pub(crate) fn as_u64(value: &Value) -> Result<u64> {
        match value {
            Value::U64(n) => Ok(*n),
            Value::I64(n) if *n >= 0 => Ok(*n as u64),
            _ => Err(error("expected an unsigned integer")),
        }
    }

    pub(crate) fn as_u32(value: &Value) -> Result<u32> {
        u32::try_from(as_u64(value)?).map_err(|_| error("integer out of u32 range"))
    }

    pub(crate) fn as_usize(value: &Value) -> Result<usize> {
        usize::try_from(as_u64(value)?).map_err(|_| error("integer out of usize range"))
    }

    pub(crate) fn as_f64(value: &Value) -> Result<f64> {
        match value {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            _ => Err(error("expected a number")),
        }
    }

    fn as_bool(value: &Value) -> Result<bool> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(error("expected a boolean")),
        }
    }

    fn as_str(value: &Value) -> Result<&str> {
        match value {
            Value::Str(s) => Ok(s),
            _ => Err(error("expected a string")),
        }
    }

    pub(crate) fn as_array(value: &Value) -> Result<&[Value]> {
        match value {
            Value::Array(items) => Ok(items),
            _ => Err(error("expected an array")),
        }
    }

    fn node_list(value: &Value) -> Result<Vec<NodeId>> {
        as_array(value)?.iter().map(as_u32).collect()
    }

    fn fault_kind(value: &Value) -> Result<FaultKind> {
        Ok(match as_str(value)? {
            "Partition" => FaultKind::Partition,
            "Heal" => FaultKind::Heal,
            "LossStorm" => FaultKind::LossStorm,
            "DelayStorm" => FaultKind::DelayStorm,
            "RestoreNetwork" => FaultKind::RestoreNetwork,
            "CrashReplica" => FaultKind::CrashReplica,
            "RecoverReplica" => FaultKind::RecoverReplica,
            "ByzantineFlip" => FaultKind::ByzantineFlip,
            "IntrusionBurst" => FaultKind::IntrusionBurst,
            "AdoptAttacker" => FaultKind::AdoptAttacker,
            "AddReplica" => FaultKind::AddReplica,
            "EvictReplica" => FaultKind::EvictReplica,
            "ClientBurst" => FaultKind::ClientBurst,
            "InjectDoubleCommit" => FaultKind::InjectDoubleCommit,
            other => return Err(error(format!("unknown fault kind `{other}`"))),
        })
    }

    fn byzantine_mode(value: &Value) -> Result<ByzantineMode> {
        Ok(match as_str(value)? {
            "Correct" => ByzantineMode::Correct,
            "Silent" => ByzantineMode::Silent,
            "Arbitrary" => ByzantineMode::Arbitrary,
            other => return Err(error(format!("unknown Byzantine mode `{other}`"))),
        })
    }

    fn attacker_kind(value: &Value) -> Result<AttackerKind> {
        Ok(match as_str(value)? {
            "EquivocatingLeader" => AttackerKind::EquivocatingLeader,
            "VoteWithholding" => AttackerKind::VoteWithholding,
            "DelayedVotes" => AttackerKind::DelayedVotes,
            "LyingDonor" => AttackerKind::LyingDonor,
            "ReplySuppression" => AttackerKind::ReplySuppression,
            other => return Err(error(format!("unknown attacker kind `{other}`"))),
        })
    }

    fn fault_event(value: &Value) -> Result<FaultEvent> {
        if let Value::Str(name) = value {
            return Ok(match name.as_str() {
                "Heal" => FaultEvent::Heal,
                "RestoreNetwork" => FaultEvent::RestoreNetwork,
                "AddReplica" => FaultEvent::AddReplica,
                other => return Err(error(format!("unknown unit event `{other}`"))),
            });
        }
        let Value::Object(entries) = value else {
            return Err(error("expected an event object or string"));
        };
        let [(name, body)] = entries.as_slice() else {
            return Err(error("expected a single-variant event object"));
        };
        Ok(match name.as_str() {
            "Partition" => FaultEvent::Partition {
                group_a: node_list(field(body, "group_a")?)?,
                group_b: node_list(field(body, "group_b")?)?,
            },
            "LossStorm" => FaultEvent::LossStorm {
                loss_rate: as_f64(field(body, "loss_rate")?)?,
            },
            "DelayStorm" => FaultEvent::DelayStorm {
                latency: as_f64(field(body, "latency")?)?,
                jitter: as_f64(field(body, "jitter")?)?,
            },
            "CrashReplica" => FaultEvent::CrashReplica {
                node: as_u32(field(body, "node")?)?,
            },
            "RecoverReplica" => FaultEvent::RecoverReplica {
                node: as_u32(field(body, "node")?)?,
            },
            "ByzantineFlip" => FaultEvent::ByzantineFlip {
                node: as_u32(field(body, "node")?)?,
                mode: byzantine_mode(field(body, "mode")?)?,
            },
            "IntrusionBurst" => FaultEvent::IntrusionBurst {
                node: as_u32(field(body, "node")?)?,
                mode: byzantine_mode(field(body, "mode")?)?,
            },
            "AdoptAttacker" => FaultEvent::AdoptAttacker {
                node: as_u32(field(body, "node")?)?,
                attacker: attacker_kind(field(body, "attacker")?)?,
            },
            "EvictReplica" => FaultEvent::EvictReplica {
                node: nullable(Some(field(body, "node")?), as_u32)?,
            },
            "ClientBurst" => FaultEvent::ClientBurst {
                requests: as_u32(field(body, "requests")?)?,
            },
            "InjectDoubleCommit" => FaultEvent::InjectDoubleCommit {
                node: as_u32(field(body, "node")?)?,
            },
            other => return Err(error(format!("unknown event `{other}`"))),
        })
    }

    pub(crate) fn schedule(value: &Value) -> Result<FaultSchedule> {
        let events = as_array(field(value, "events")?)?
            .iter()
            .map(|entry| {
                Ok(ScheduledFault {
                    step: as_u32(field(entry, "step")?)?,
                    event: fault_event(field(entry, "event")?)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(FaultSchedule {
            seed: as_u64(field(value, "seed")?)?,
            events,
        })
    }

    fn network(value: &Value) -> Result<NetworkConfig> {
        let config = NetworkConfig {
            latency: as_f64(field(value, "latency")?)?,
            jitter: as_f64(field(value, "jitter")?)?,
            loss_rate: as_f64(field(value, "loss_rate")?)?,
        };
        // A hand-edited file with out-of-range fields must surface as a
        // decode error, not as a panic deep inside the replay.
        config
            .validate()
            .map_err(|e| error(format!("invalid network config: {e}")))?;
        Ok(config)
    }

    fn attackers(value: &Value) -> Result<Vec<AttackerKind>> {
        as_array(value)?.iter().map(attacker_kind).collect()
    }

    pub(crate) fn config(value: &Value) -> Result<ScheduleConfig> {
        let d = ScheduleConfig::default();
        Ok(ScheduleConfig {
            checkpoint_period: or_default(value, "checkpoint_period", as_u64, d.checkpoint_period)?,
            batch_size: or_default(value, "batch_size", as_usize, d.batch_size)?,
            pipeline_window: or_default(value, "pipeline_window", as_usize, d.pipeline_window)?,
            gst: nullable(opt_field(value, "gst"), as_u32)?,
            post_gst_liveness_steps: or_default(
                value,
                "post_gst_liveness_steps",
                as_u32,
                d.post_gst_liveness_steps,
            )?,
            attackers: or_default(value, "attackers", attackers, d.attackers)?,
            initial_replicas: as_usize(field(value, "initial_replicas")?)?,
            max_replicas: as_usize(field(value, "max_replicas")?)?,
            parallel_recoveries: as_usize(field(value, "parallel_recoveries")?)?,
            horizon: as_u32(field(value, "horizon")?)?,
            step_duration: as_f64(field(value, "step_duration")?)?,
            delta_r: as_u32(field(value, "delta_r")?)?,
            recovery_threshold: as_f64(field(value, "recovery_threshold")?)?,
            system_controller: as_bool(field(value, "system_controller")?)?,
            network: network(field(value, "network")?)?,
            intensity: as_f64(field(value, "intensity")?)?,
            enabled: as_array(field(value, "enabled")?)?
                .iter()
                .map(fault_kind)
                .collect::<Result<Vec<_>>>()?,
            inject_double_commit_at: nullable(
                Some(field(value, "inject_double_commit_at")?),
                as_u32,
            )?,
        })
    }

    pub(crate) fn violation(value: &Value) -> Result<Violation> {
        let kind = match as_str(field(value, "kind")?)? {
            "Agreement" => InvariantKind::Agreement,
            "Validity" => InvariantKind::Validity,
            "RecoveryBound" => InvariantKind::RecoveryBound,
            "NetworkAccounting" => InvariantKind::NetworkAccounting,
            "Liveness" => InvariantKind::Liveness,
            "Routing" => InvariantKind::Routing,
            "Atomicity" => InvariantKind::Atomicity,
            "LivenessAfterGst" => InvariantKind::LivenessAfterGst,
            other => return Err(error(format!("unknown invariant `{other}`"))),
        };
        Ok(Violation {
            kind,
            step: as_u32(field(value, "step")?)?,
            detail: as_str(field(value, "detail")?)?.to_string(),
        })
    }

    /// Parses a counterexample document — `{seed, config, schedule,
    /// violation}` — decoding the configuration and schedule with the
    /// given decoders. The top-level seed is informational but must agree
    /// with the schedule's (which is what the replay actually uses); a
    /// hand-edited mismatch would silently replay a different run.
    pub(crate) fn document<C, S>(
        json: &str,
        config: fn(&Value) -> Result<C>,
        schedule: fn(&Value) -> Result<S>,
        schedule_seed: fn(&S) -> u64,
    ) -> Result<(u64, C, S, Violation)> {
        let value = serde_json::parse_value(json)
            .map_err(|e| CoreError::Solver(format!("parse counterexample: {e}")))?;
        let seed = as_u64(field(&value, "seed")?)?;
        let schedule = schedule(field(&value, "schedule")?)?;
        if seed != schedule_seed(&schedule) {
            return Err(error(format!(
                "seed {seed} disagrees with schedule seed {}",
                schedule_seed(&schedule)
            )));
        }
        Ok((
            seed,
            config(field(&value, "config")?)?,
            schedule,
            violation(field(&value, "violation")?)?,
        ))
    }
}

/// Convenience: run a schedule and, if it violates an invariant, shrink it
/// and package the counterexample.
///
/// # Errors
///
/// Propagates harness construction failures.
pub fn find_counterexample(
    schedule: &FaultSchedule,
    config: &ScheduleConfig,
) -> Result<Option<Counterexample>> {
    let Some(violation) = run_schedule(schedule, config)?.violation else {
        return Ok(None);
    };
    let (schedule, violation) = shrink_schedule(schedule, config, &violation)?;
    Ok(Some(Counterexample {
        seed: schedule.seed,
        config: config.clone(),
        schedule,
        violation,
    }))
}
