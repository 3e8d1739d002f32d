//! Greedy schedule shrinking and replayable counterexamples.
//!
//! When an oracle fires, the harness minimizes the offending schedules by
//! greedy drop-one-event search: repeatedly try removing a single event
//! from any shard's schedule and keep the removal whenever the *same
//! invariant* still breaks. The result, together with the seed and the full
//! run configuration, is packaged as a [`ShardedCounterexample`] that
//! serializes to JSON — reproducing a failure is one
//! `ShardedCounterexample::from_json(..).replay()` away.

use crate::error::{CoreError, Result};
use crate::simnet::oracle::Violation;
use crate::simnet::sharded::{run_sharded_schedule, ShardedFaultSchedule, ShardedScheduleConfig};
use serde::{Deserialize, Serialize};

/// A minimal, replayable description of an invariant violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedCounterexample {
    /// The fleet seed.
    pub seed: u64,
    /// The full run configuration.
    pub config: ShardedScheduleConfig,
    /// The (shrunk) per-shard schedules that still trigger the violation.
    pub schedule: ShardedFaultSchedule,
    /// The violation observed when executing the schedules.
    pub violation: Violation,
}

impl ShardedCounterexample {
    /// Serializes the counterexample to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer failures.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| CoreError::Solver(format!("serialize counterexample: {e}")))
    }

    /// Parses a counterexample from JSON (the inverse of
    /// [`ShardedCounterexample::to_json`]) through the derived
    /// [`Deserialize`] impl, then makes the two checks a derive cannot
    /// know. Fields introduced after counterexamples were first emitted
    /// carry a `default` attribute, so archived documents stay replayable;
    /// every other field is required.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a document that does not describe a
    /// counterexample, a seed that disagrees with the schedule's, or an
    /// out-of-range network profile.
    pub fn from_json(json: &str) -> Result<Self> {
        let error = |detail: String| CoreError::Solver(format!("decode counterexample: {detail}"));
        let document: Self = serde_json::from_str(json).map_err(|e| error(e.to_string()))?;
        // The top-level seed is informational but must agree with the
        // schedule's (which is what the replay actually uses); a hand-edited
        // mismatch would silently replay a different run.
        let (seed, schedule_seed) = (document.seed, document.schedule.seed);
        if seed != schedule_seed {
            return Err(error(format!(
                "seed {seed} disagrees with schedule seed {schedule_seed}"
            )));
        }
        // A hand-edited file with out-of-range fields must surface as a
        // decode error, not as a panic deep inside the replay.
        (document.config.base.network.validate())
            .map_err(|e| error(format!("invalid network config: {e}")))?;
        Ok(document)
    }

    /// Re-executes the stored schedules and returns the violation the
    /// replay produces (which, for a valid counterexample, matches
    /// `violation`).
    ///
    /// # Errors
    ///
    /// Propagates harness construction failures.
    pub fn replay(&self) -> Result<Option<Violation>> {
        Ok(run_sharded_schedule(&self.schedule, &self.config)?.violation)
    }
}

/// Greedy drop-one-event minimization across every shard's schedule:
/// returns the smallest schedules (under single-event removals) that still
/// violate the same invariant kind as `violation`, plus the violation they
/// produce.
///
/// # Errors
///
/// Propagates harness construction failures.
fn shrink_schedule(
    schedule: &ShardedFaultSchedule,
    config: &ShardedScheduleConfig,
    violation: &Violation,
) -> Result<(ShardedFaultSchedule, Violation)> {
    let mut minimal = schedule.clone();
    let mut current = violation.clone();
    let mut improved = true;
    while improved {
        improved = false;
        for shard in 0..minimal.shards.len() {
            let mut index = 0;
            while index < minimal.shards[shard].events.len() {
                let removed = minimal.shards[shard].events.remove(index);
                match run_sharded_schedule(&minimal, config)?.violation {
                    Some(v) if v.kind == current.kind => {
                        // Do not advance: the next event shifted into
                        // `index`.
                        current = v;
                        improved = true;
                    }
                    _ => {
                        minimal.shards[shard].events.insert(index, removed);
                        index += 1;
                    }
                }
            }
        }
    }
    Ok((minimal, current))
}

/// Runs a schedule and, if it violates an invariant, shrinks it and
/// packages the counterexample.
///
/// # Errors
///
/// Propagates harness construction failures.
pub fn find_sharded_counterexample(
    schedule: &ShardedFaultSchedule,
    config: &ShardedScheduleConfig,
) -> Result<Option<ShardedCounterexample>> {
    let Some(violation) = run_sharded_schedule(schedule, config)?.violation else {
        return Ok(None);
    };
    let (schedule, violation) = shrink_schedule(schedule, config, &violation)?;
    Ok(Some(ShardedCounterexample {
        seed: schedule.seed,
        config: config.clone(),
        schedule,
        violation,
    }))
}
