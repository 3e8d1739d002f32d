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

/// Reads a counterexample document (either kind) through its derived
/// [`Deserialize`] impl, then makes the two checks a derive cannot know.
/// `checked` returns the document's top-level seed, its schedule's seed and
/// its per-group configuration.
pub(crate) fn document_from_json<T: Deserialize>(
    json: &str,
    checked: fn(&T) -> (u64, u64, &ScheduleConfig),
) -> Result<T> {
    let error = |detail: String| CoreError::Solver(format!("decode counterexample: {detail}"));
    let document: T = serde_json::from_str(json).map_err(|e| error(e.to_string()))?;
    let (seed, schedule_seed, config) = checked(&document);
    // The top-level seed is informational but must agree with the
    // schedule's (which is what the replay actually uses); a hand-edited
    // mismatch would silently replay a different run.
    if seed != schedule_seed {
        return Err(error(format!(
            "seed {seed} disagrees with schedule seed {schedule_seed}"
        )));
    }
    // A hand-edited file with out-of-range fields must surface as a decode
    // error, not as a panic deep inside the replay.
    config
        .network
        .validate()
        .map_err(|e| error(format!("invalid network config: {e}")))?;
    Ok(document)
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
    /// [`Counterexample::to_json`]). The [`ScheduleConfig`] fields added
    /// after counterexamples were first emitted carry a `default`
    /// attribute, so archived documents stay replayable; every other field
    /// is required.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a document that does not describe a
    /// counterexample, a seed that disagrees with the schedule's, or an
    /// out-of-range network profile.
    pub fn from_json(json: &str) -> Result<Self> {
        document_from_json(json, |c: &Self| (c.seed, c.schedule.seed, &c.config))
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
fn shrink_schedule(
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
