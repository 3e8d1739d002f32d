//! The third feedback loop: data-plane self-tuning.
//!
//! The paper's two control levels steer *security* state — which replica to
//! recover, when to change the replication factor. Every data-plane knob
//! (leader batch size, batch flush delay, client concurrency) stayed a
//! static constant, even though throughput is sharply batch-sensitive. This
//! module closes a third loop in the same Observe → Decide → Act shape:
//!
//! | law          | observes                 | actuates                     |
//! |--------------|--------------------------|------------------------------|
//! | AIMD         | windowed p99 latency     | `batch_size` + `batch_delay` |
//! | AIMD         | windowed p99 + depth     | client concurrency cap       |
//! | retry budget | completions per client   | retransmission rate          |
//! | backpressure | replica mailbox depth    | admission (delay / shed)     |
//!
//! The controller itself ([`AutotuneController`]) is a pure deterministic
//! state machine: the same observation sequence yields the same decision
//! sequence, so the simnet executor ticks it per window inside the
//! per-shard sub-executor (seeded, byte-identical across workers,
//! shrinkable), while the live planes run it on a real thread
//! ([`AutotuneLoop`]) fed by [`SharedTuning`] metrics.
//!
//! **The online clamp.** Whatever the AIMD laws do, the actuated pair is
//! re-clamped through the batching fragmentation floor
//! (`batch_delay ≥ batch_size × (processing_time + signature_time)`,
//! [`MinBftConfig::min_batch_delay`]): a flush window shorter than the time
//! to fill the batch silently degrades every batch to a partial flush. The
//! controller therefore can never emit a pair
//! [`MinBftConfig::validate`] rejects — property-checked across the
//! reachable state space in `tests/properties.rs`.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tolerance_consensus::metrics::SharedTuning;
use tolerance_consensus::MinBftConfig;

/// Configuration of the data-plane autotune controller. In a
/// counterexample document every field is optional: an absent one is its
/// [`Default`] value (the controller sanitizes on construction either way).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct AutotuneConfig {
    /// The p99 latency target in seconds: additive increase below it,
    /// multiplicative decrease above it.
    pub p99_target: f64,
    /// Initial and bounding batch sizes.
    pub initial_batch: usize,
    /// Lower batch-size bound (≥ 1).
    pub min_batch: usize,
    /// Upper batch-size bound.
    pub max_batch: usize,
    /// Additive batch-size increase per calm window.
    pub batch_step: usize,
    /// Initial client concurrency cap.
    pub initial_concurrency: usize,
    /// Lower concurrency bound (≥ 1).
    pub min_concurrency: usize,
    /// Upper concurrency bound.
    pub max_concurrency: usize,
    /// Additive concurrency increase per calm window.
    pub concurrency_step: usize,
    /// Multiplicative decrease factor applied on overload, in `(0, 1)`.
    pub decrease_factor: f64,
    /// Queue depth at which admission switches from accept to delay (and
    /// the AIMD laws treat the window as overloaded).
    pub delay_watermark: u64,
    /// Queue depth at which admission sheds instead of delaying.
    pub shed_watermark: u64,
    /// The configured flush delay floor: the actuated `batch_delay` is
    /// `max(base_batch_delay, fragmentation floor)`.
    pub base_batch_delay: f64,
    /// Per-request processing cost of the plane being tuned (the
    /// fragmentation-floor term; must match the cluster's config).
    pub processing_time: f64,
    /// Per-signature cost of the plane being tuned (the other floor term).
    pub signature_time: f64,
    /// Simnet: steps per observation window (the per-shard tick cadence).
    pub window_steps: u32,
    /// Live planes: seconds per observation window.
    pub window_seconds: f64,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            p99_target: 0.25,
            initial_batch: 1,
            min_batch: 1,
            max_batch: 256,
            batch_step: 4,
            initial_concurrency: 4,
            min_concurrency: 1,
            max_concurrency: 64,
            concurrency_step: 1,
            decrease_factor: 0.5,
            delay_watermark: 64,
            shed_watermark: 256,
            base_batch_delay: 0.005,
            processing_time: 0.0008,
            signature_time: 0.0,
            window_steps: 2,
            window_seconds: 0.05,
        }
    }
}

impl AutotuneConfig {
    /// A sanitized copy: bounds ordered, factors finite and in range. The
    /// controller only ever runs on sanitized configurations, which is what
    /// makes the online-clamp property hold for arbitrary inputs.
    fn sanitized(&self) -> AutotuneConfig {
        let finite = |value: f64, fallback: f64| if value.is_finite() { value } else { fallback };
        let min_batch = self.min_batch.max(1);
        let max_batch = self.max_batch.max(min_batch);
        let min_concurrency = self.min_concurrency.max(1);
        let max_concurrency = self.max_concurrency.max(min_concurrency);
        AutotuneConfig {
            p99_target: finite(self.p99_target, 0.25).max(1e-6),
            initial_batch: self.initial_batch.clamp(min_batch, max_batch),
            min_batch,
            max_batch,
            batch_step: self.batch_step.max(1),
            initial_concurrency: self
                .initial_concurrency
                .clamp(min_concurrency, max_concurrency),
            min_concurrency,
            max_concurrency,
            concurrency_step: self.concurrency_step.max(1),
            decrease_factor: finite(self.decrease_factor, 0.5).clamp(0.05, 0.95),
            delay_watermark: self.delay_watermark.max(1),
            shed_watermark: self.shed_watermark.max(self.delay_watermark.max(1)),
            base_batch_delay: finite(self.base_batch_delay, 0.005).max(0.0),
            processing_time: finite(self.processing_time, 0.0).max(0.0),
            signature_time: finite(self.signature_time, 0.0).max(0.0),
            window_steps: self.window_steps.max(1),
            window_seconds: finite(self.window_seconds, 0.05).max(0.001),
        }
    }
}

/// What the admission control law tells the router to do with new demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// Queue depth below the delay watermark: admit everything.
    Accept,
    /// Depth between the watermarks: defer new demand to the backlog
    /// instead of submitting it (it retries next step/window).
    Delay,
    /// Depth at or above the shed watermark: drop new demand outright.
    Shed,
}

/// One observation window, as seen by the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotuneObservation {
    /// Requests completed during the window.
    pub completed: u64,
    /// The window's p99 latency in seconds (0.0 when no sample).
    pub p99: f64,
    /// Queue depth at the window boundary (replica mailbox depth on the
    /// live planes, network in-flight count in the simulation).
    pub queue_depth: u64,
    /// Retransmissions the retry budget suppressed during the window.
    pub suppressed: u64,
}

/// The actuated knob set a window tick produces (serialized into the
/// sharded run report, so decision replay is part of the determinism
/// contract).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutotuneDecision {
    /// The actuated leader batch size.
    pub batch_size: usize,
    /// The actuated flush delay (already clamped to the fragmentation
    /// floor).
    pub batch_delay: f64,
    /// The actuated client concurrency cap.
    pub concurrency: usize,
    /// The admission verdict for the next window.
    pub admission: Admission,
    /// Whether the window was judged overloaded (the multiplicative
    /// branch).
    pub overloaded: bool,
}

/// The deterministic AIMD + backpressure controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AutotuneController {
    config: AutotuneConfig,
    batch_size: usize,
    concurrency: usize,
    admission: Admission,
}

impl AutotuneController {
    /// Builds a controller from a (sanitized copy of the) configuration.
    pub fn new(config: &AutotuneConfig) -> Self {
        let config = config.sanitized();
        AutotuneController {
            batch_size: config.initial_batch,
            concurrency: config.initial_concurrency,
            admission: Admission::Accept,
            config,
        }
    }

    /// The sanitized configuration in force.
    pub fn config(&self) -> &AutotuneConfig {
        &self.config
    }

    /// The currently actuated batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The currently actuated flush delay: the configured base, raised to
    /// the fragmentation floor of the current batch size. By construction
    /// this pair always passes [`MinBftConfig::validate`].
    pub fn batch_delay(&self) -> f64 {
        let floor = if self.batch_size <= 1 {
            0.0
        } else {
            self.batch_size as f64 * (self.config.processing_time + self.config.signature_time)
        };
        self.config.base_batch_delay.max(floor)
    }

    /// The currently actuated client concurrency cap.
    pub fn concurrency(&self) -> usize {
        self.concurrency
    }

    /// The current knob set as a decision record.
    fn decision(&self, overloaded: bool) -> AutotuneDecision {
        AutotuneDecision {
            batch_size: self.batch_size,
            batch_delay: self.batch_delay(),
            concurrency: self.concurrency,
            admission: self.admission,
            overloaded,
        }
    }

    /// Consumes one observation window and produces the next knob set.
    ///
    /// * **Overloaded** (p99 above target, or queue past the delay
    ///   watermark): multiplicative decrease on batch size and concurrency.
    /// * **Calm with traffic**: additive increase on both.
    /// * **Idle** (no completions, shallow queue): hold — an empty window
    ///   is no evidence in either direction.
    pub fn observe(&mut self, observation: AutotuneObservation) -> AutotuneDecision {
        let config = &self.config;
        let overloaded = (observation.completed > 0 && observation.p99 > config.p99_target)
            || observation.queue_depth >= config.delay_watermark;
        if overloaded {
            let decrease = |value: usize, min: usize| {
                (((value as f64) * config.decrease_factor).floor() as usize).max(min)
            };
            self.batch_size = decrease(self.batch_size, config.min_batch);
            self.concurrency = decrease(self.concurrency, config.min_concurrency);
        } else if observation.completed > 0 {
            self.batch_size = (self.batch_size + config.batch_step).min(config.max_batch);
            self.concurrency =
                (self.concurrency + config.concurrency_step).min(config.max_concurrency);
        }
        self.admission = if observation.queue_depth >= config.shed_watermark {
            Admission::Shed
        } else if observation.queue_depth >= config.delay_watermark {
            Admission::Delay
        } else {
            Admission::Accept
        };
        self.decision(overloaded)
    }

    /// Whether the actuated pair passes the cluster's validation with the
    /// matching cost model — the online-clamp invariant (also asserted in
    /// debug builds on every decision via the sharded executor).
    pub fn actuation_validates(&self) -> bool {
        MinBftConfig {
            batch_size: self.batch_size,
            batch_delay: self.batch_delay(),
            processing_time: self.config.processing_time,
            signature_time: self.config.signature_time,
            ..MinBftConfig::default()
        }
        .validate()
        .is_ok()
    }
}

/// The live-plane autotune thread: every `window_seconds` it drains the
/// [`SharedTuning`] observation window, reads the mailbox-depth gauge,
/// ticks the controller and publishes the actuated knobs back through the
/// shared atomics (which the replica event loops and client drivers
/// re-read each iteration).
pub struct AutotuneLoop {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<AutotuneDecision>>>,
}

impl AutotuneLoop {
    /// Spawns the loop. `depth` is the queue-depth gauge (e.g.
    /// `TransportHandle::mailbox_depth`); the initial knob set is published
    /// before the thread starts so the planes never observe untuned
    /// atomics.
    pub fn spawn<D>(mut controller: AutotuneController, tuning: Arc<SharedTuning>, depth: D) -> Self
    where
        D: Fn() -> u64 + Send + 'static,
    {
        tuning.apply(
            controller.batch_size(),
            controller.batch_delay(),
            controller.concurrency(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let window = Duration::from_secs_f64(controller.config().window_seconds);
        let thread = std::thread::spawn(move || {
            let mut decisions = Vec::new();
            'ticks: loop {
                // Sleep in short slices so stop() returns promptly even
                // with long windows.
                let mut slept = Duration::ZERO;
                while slept < window {
                    if stop_flag.load(Ordering::Relaxed) {
                        break 'ticks;
                    }
                    let slice = Duration::from_millis(1).min(window - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
                let observed = tuning.take_window();
                let decision = controller.observe(AutotuneObservation {
                    completed: observed.completed,
                    p99: observed.latencies.quantile(0.99),
                    queue_depth: depth(),
                    suppressed: observed.suppressed,
                });
                tuning.apply(
                    decision.batch_size,
                    decision.batch_delay,
                    decision.concurrency,
                );
                decisions.push(decision);
            }
            decisions
        });
        AutotuneLoop {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the loop and returns the decision trace.
    pub fn stop(mut self) -> Vec<AutotuneDecision> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .map(|thread| thread.join().expect("autotune loop panicked"))
            .unwrap_or_default()
    }
}

impl Drop for AutotuneLoop {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm(completed: u64) -> AutotuneObservation {
        AutotuneObservation {
            completed,
            p99: 0.01,
            queue_depth: 0,
            suppressed: 0,
        }
    }

    #[test]
    fn aimd_increases_additively_and_decreases_multiplicatively() {
        let mut controller = AutotuneController::new(&AutotuneConfig {
            initial_batch: 8,
            batch_step: 4,
            initial_concurrency: 8,
            concurrency_step: 2,
            decrease_factor: 0.5,
            p99_target: 0.1,
            ..AutotuneConfig::default()
        });
        let calm_decision = controller.observe(calm(10));
        assert_eq!(calm_decision.batch_size, 12);
        assert_eq!(calm_decision.concurrency, 10);
        assert!(!calm_decision.overloaded);
        let overload = controller.observe(AutotuneObservation {
            completed: 10,
            p99: 0.5,
            queue_depth: 0,
            suppressed: 0,
        });
        assert!(overload.overloaded);
        assert_eq!(overload.batch_size, 6);
        assert_eq!(overload.concurrency, 5);
    }

    #[test]
    fn idle_windows_hold_the_knobs() {
        let mut controller = AutotuneController::new(&AutotuneConfig {
            initial_batch: 16,
            ..AutotuneConfig::default()
        });
        let decision = controller.observe(calm(0));
        assert_eq!(decision.batch_size, 16);
        assert!(!decision.overloaded);
    }

    #[test]
    fn admission_follows_the_watermarks() {
        let mut controller = AutotuneController::new(&AutotuneConfig {
            delay_watermark: 10,
            shed_watermark: 20,
            ..AutotuneConfig::default()
        });
        for (depth, expected) in [
            (0, Admission::Accept),
            (10, Admission::Delay),
            (25, Admission::Shed),
            (3, Admission::Accept),
        ] {
            let decision = controller.observe(AutotuneObservation {
                completed: 1,
                p99: 0.01,
                queue_depth: depth,
                suppressed: 0,
            });
            assert_eq!(decision.admission, expected, "depth {depth}");
        }
    }

    #[test]
    fn actuation_always_validates_under_growth() {
        // Drive the controller to its maximum batch with a visible
        // signature cost: the clamp must track the growing floor.
        let mut controller = AutotuneController::new(&AutotuneConfig {
            max_batch: 256,
            batch_step: 16,
            processing_time: 0.001,
            signature_time: 0.002,
            base_batch_delay: 0.001,
            p99_target: 10.0,
            ..AutotuneConfig::default()
        });
        for _ in 0..64 {
            let decision = controller.observe(calm(100));
            assert!(controller.actuation_validates(), "{decision:?}");
            assert!(decision.batch_delay >= decision.batch_size as f64 * 0.003 - 1e-12);
        }
        assert_eq!(controller.batch_size(), 256);
    }

    #[test]
    fn controller_is_deterministic_in_the_observation_sequence() {
        let config = AutotuneConfig::default();
        let mut a = AutotuneController::new(&config);
        let mut b = AutotuneController::new(&config);
        for step in 0u64..50 {
            let observation = AutotuneObservation {
                completed: step % 7,
                p99: 0.01 * (step % 40) as f64,
                queue_depth: (step * 13) % 300,
                suppressed: step % 3,
            };
            assert_eq!(a.observe(observation), b.observe(observation));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn autotune_loop_publishes_decisions_to_shared_tuning() {
        let config = AutotuneConfig {
            window_seconds: 0.005,
            initial_batch: 1,
            batch_step: 8,
            p99_target: 10.0,
            ..AutotuneConfig::default()
        };
        let tuning = Arc::new(SharedTuning::new(1, 0.0, 1));
        let controller = AutotuneController::new(&config);
        let autotune = AutotuneLoop::spawn(controller, Arc::clone(&tuning), || 0);
        // Feed calm windows until the loop has demonstrably acted.
        for _ in 0..400 {
            tuning.observe_latency(0.001);
            if tuning.batch_size() > 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let decisions = autotune.stop();
        assert!(!decisions.is_empty(), "the loop must have ticked");
        assert!(
            tuning.batch_size() > 1,
            "calm traffic must grow the batch: {decisions:?}"
        );
    }
}
