//! Windowed data-plane metrics and retry budgeting.
//!
//! The third feedback loop (see `core::controlplane::autotune`) needs its
//! *observations* to live next to the things being observed: the simulated
//! cluster, the threaded service and the socket service all count requests
//! and measure latency here, and the controller in `core` consumes the
//! resulting snapshots. Two primitives:
//!
//! * [`LatencyHistogram`] — a log-scale histogram (quarter-octave buckets
//!   above a 1 µs resolution floor) with exact `count`/`sum`/`max`
//!   side-channels. Quantiles are monotone in `q`, never exceed the
//!   recorded maximum, and merging two histograms is exactly equivalent to
//!   recording the union of their samples.
//! * `RetryBudget` — a deterministic token bucket that caps client
//!   retransmissions: each completed request earns a fraction of a retry
//!   token, so under persistent loss the retransmit rate is bounded by
//!   `ratio · success-rate + burst` instead of amplifying the overload
//!   that caused the loss in the first place.
//!
//! [`SharedTuning`] is the thread-safe rendezvous between the live planes
//! and the `AutotuneLoop`: replicas and client drivers publish latencies
//! and counters into it, the loop drains one window at a time and writes
//! the actuated knobs (batch size, batch delay, client concurrency) back
//! through lock-free atomics that the replica event loops re-read every
//! iteration.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Resolution floor of the log-scale histogram: one microsecond. Latencies
/// at or below it land in bucket 0.
const HISTOGRAM_BASE: f64 = 1e-6;
/// Buckets per factor-of-two of latency (quarter-octave resolution keeps
/// the relative quantile error under ~19%).
const BUCKETS_PER_OCTAVE: f64 = 4.0;
/// Bucket index cap (covers latencies beyond 10^5 seconds — effectively
/// unbounded for this codebase while keeping arithmetic finite).
const MAX_BUCKET: i64 = 40 * 4;

/// A log-scale latency histogram with exact max/count/sum side-channels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// Bucket index → sample count. Bucket `i` covers latencies up to
    /// `HISTOGRAM_BASE · 2^(i / BUCKETS_PER_OCTAVE)`.
    buckets: BTreeMap<i64, u64>,
    count: u64,
    sum: f64,
    max: f64,
}

/// The bucket a latency lands in: the smallest quarter-octave boundary at
/// or above it. Non-positive, NaN and sub-resolution latencies land in
/// bucket 0.
fn bucket_of(latency: f64) -> i64 {
    if latency.is_nan() || latency <= HISTOGRAM_BASE {
        return 0;
    }
    let index = ((latency / HISTOGRAM_BASE).log2() * BUCKETS_PER_OCTAVE).ceil() as i64;
    index.clamp(0, MAX_BUCKET)
}

/// The upper latency boundary of a bucket.
fn bucket_upper(index: i64) -> f64 {
    HISTOGRAM_BASE * (index as f64 / BUCKETS_PER_OCTAVE).exp2()
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample (seconds). Negative and NaN samples are
    /// clamped into bucket 0 with value 0.0 — measurement glitches must
    /// never poison the controller.
    pub fn record(&mut self, latency: f64) {
        let latency = if latency.is_finite() && latency > 0.0 {
            latency
        } else {
            0.0
        };
        *self.buckets.entry(bucket_of(latency)).or_insert(0) += 1;
        self.count += 1;
        self.sum += latency;
        if latency > self.max {
            self.max = latency;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (seconds).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact maximum recorded sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean latency (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`q` clamped into `[0, 1]`): the bucket upper bound
    /// covering the sample of rank `⌈q · count⌉`, clamped to the exact
    /// recorded maximum. Monotone in `q`; returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            1.0
        };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (&index, &count) in &self.buckets {
            cumulative += count;
            if cumulative >= rank {
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Merges `other` in: exactly equivalent to having recorded `other`'s
    /// samples (in order) after this histogram's own.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (&index, &count) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += count;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Drains this histogram, returning its contents and leaving it empty
    /// (the window-rotation hook of the live planes).
    pub fn take(&mut self) -> LatencyHistogram {
        std::mem::take(self)
    }
}

/// Configuration of a `RetryBudget` token bucket.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetryBudgetConfig {
    /// Retry tokens earned per completed request. A ratio of `0.1` bounds
    /// steady-state retransmissions at 10% of goodput.
    pub ratio: f64,
    /// Token cap — the burst of retries allowed after an idle stretch and
    /// the initial allowance of a fresh client. Clamped to at least 1.0 so
    /// a budgeted client can always eventually retry.
    pub burst: f64,
    /// Tokens earned per *denied* retry attempt. Denials happen at the
    /// request-timeout cadence, so this is a deterministic stand-in for a
    /// slow time-based refill: it bounds a stuck client's retransmit rate
    /// at `trickle` per timeout period (vs 1 per timeout unbudgeted) while
    /// guaranteeing the client is never starved forever.
    pub trickle: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            ratio: 0.1,
            burst: 4.0,
            trickle: 0.25,
        }
    }
}

/// A deterministic retry token bucket: retransmissions spend one token
/// each, completions earn `ratio` tokens, and the balance never exceeds
/// `burst`. No wall-clock dependence — the same sequence of completions
/// and retry attempts yields the same sequence of grants, which keeps the
/// simulated planes byte-replayable.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RetryBudget {
    config: RetryBudgetConfig,
    tokens: f64,
}

impl RetryBudget {
    /// A fresh budget starting at the full burst allowance.
    pub fn new(config: RetryBudgetConfig) -> Self {
        let burst = config.burst.max(1.0);
        RetryBudget {
            config: RetryBudgetConfig {
                ratio: config.ratio.max(0.0),
                burst,
                trickle: config.trickle.max(0.0),
            },
            tokens: burst,
        }
    }

    /// Earns `ratio` tokens for one completed request.
    pub(crate) fn on_success(&mut self) {
        self.tokens = (self.tokens + self.config.ratio).min(self.config.burst);
    }

    /// Attempts to spend one token on a retransmission. Returns whether the
    /// retry is within budget; a denied retry spends nothing but earns the
    /// `trickle` refill (denials arrive at the timeout cadence, so the
    /// trickle is effectively a slow per-timeout refill).
    pub(crate) fn try_retry(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            self.tokens = (self.tokens + self.config.trickle).min(self.config.burst);
            false
        }
    }
}

/// One drained observation window of a live plane (see
/// [`SharedTuning::take_window`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TuningWindow {
    /// Latencies completed during the window.
    pub latencies: LatencyHistogram,
    /// Requests completed during the window.
    pub completed: u64,
    /// Retransmissions sent during the window.
    pub retransmissions: u64,
    /// Retransmissions suppressed by the retry budget during the window.
    pub suppressed: u64,
}

/// Thread-safe tuning state shared between the live planes and the
/// autotune loop: actuated knobs flow controller → replicas/drivers
/// through relaxed atomics (re-read every event-loop iteration), and
/// window metrics flow the other way.
#[derive(Debug)]
pub struct SharedTuning {
    batch_size: AtomicU64,
    batch_delay_bits: AtomicU64,
    concurrency: AtomicU64,
    completed: AtomicU64,
    retransmissions: AtomicU64,
    suppressed: AtomicU64,
    window: Mutex<LatencyHistogram>,
}

impl SharedTuning {
    /// Creates the shared state with the given initial knob values.
    pub fn new(batch_size: usize, batch_delay: f64, concurrency: usize) -> Self {
        SharedTuning {
            batch_size: AtomicU64::new(batch_size as u64),
            batch_delay_bits: AtomicU64::new(batch_delay.to_bits()),
            concurrency: AtomicU64::new(concurrency as u64),
            completed: AtomicU64::new(0),
            retransmissions: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            window: Mutex::new(LatencyHistogram::new()),
        }
    }

    /// The currently actuated batch size (≥ 1).
    pub fn batch_size(&self) -> usize {
        (self.batch_size.load(Ordering::Relaxed).max(1)) as usize
    }

    /// The currently actuated batch flush delay in seconds.
    pub fn batch_delay(&self) -> f64 {
        f64::from_bits(self.batch_delay_bits.load(Ordering::Relaxed))
    }

    /// The currently actuated client concurrency cap (≥ 1).
    pub fn concurrency(&self) -> usize {
        (self.concurrency.load(Ordering::Relaxed).max(1)) as usize
    }

    /// Publishes a new knob triple (controller → planes).
    pub fn apply(&self, batch_size: usize, batch_delay: f64, concurrency: usize) {
        self.batch_size
            .store(batch_size.max(1) as u64, Ordering::Relaxed);
        self.batch_delay_bits
            .store(batch_delay.to_bits(), Ordering::Relaxed);
        self.concurrency
            .store(concurrency.max(1) as u64, Ordering::Relaxed);
    }

    /// Records one completed request and its latency (plane → controller).
    pub fn observe_latency(&self, latency: f64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.window
            .lock()
            .expect("tuning window lock")
            .record(latency);
    }

    /// Counts one retransmission actually sent.
    pub(crate) fn note_retransmission(&self) {
        self.retransmissions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one retransmission suppressed by the retry budget.
    pub(crate) fn note_suppressed(&self) {
        self.suppressed.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains the current observation window, resetting the counters.
    pub fn take_window(&self) -> TuningWindow {
        let latencies = self.window.lock().expect("tuning window lock").take();
        TuningWindow {
            latencies,
            completed: self.completed.swap(0, Ordering::Relaxed),
            retransmissions: self.retransmissions.swap(0, Ordering::Relaxed),
            suppressed: self.suppressed.swap(0, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let mut histogram = LatencyHistogram::new();
        for latency in [0.001, 0.002, 0.004, 0.008, 0.5] {
            histogram.record(latency);
        }
        assert_eq!(histogram.count(), 5);
        assert!((histogram.max() - 0.5).abs() < 1e-12);
        assert_eq!(histogram.quantile(1.0), 0.5);
        let median = histogram.quantile(0.5);
        // Quarter-octave resolution: within 2^(1/4) of the true median.
        assert!(
            median >= 0.002 && median <= 0.004 * 2f64.powf(0.25),
            "{median}"
        );
        assert!(histogram.quantile(0.1) <= histogram.quantile(0.9));
    }

    #[test]
    fn histogram_merge_matches_union() {
        let samples_a = [0.01, 0.03, 1.5];
        let samples_b = [0.0002, 0.25];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for &s in &samples_a {
            a.record(s);
        }
        for &s in &samples_b {
            b.record(s);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let mut union = LatencyHistogram::new();
        for &s in samples_a.iter().chain(&samples_b) {
            union.record(s);
        }
        assert_eq!(merged, union);
    }

    #[test]
    fn retry_budget_bounds_retransmissions() {
        let mut budget = RetryBudget::new(RetryBudgetConfig {
            ratio: 0.5,
            burst: 2.0,
            trickle: 0.0,
        });
        // Initial burst: exactly two retries, then dry.
        assert!(budget.try_retry());
        assert!(budget.try_retry());
        assert!(!budget.try_retry());
        // Two successes earn one token.
        budget.on_success();
        assert!(!budget.try_retry());
        budget.on_success();
        assert!(budget.try_retry());
        assert!(!budget.try_retry());
    }

    #[test]
    fn retry_budget_trickle_prevents_starvation() {
        let mut budget = RetryBudget::new(RetryBudgetConfig {
            ratio: 0.0,
            burst: 1.0,
            trickle: 0.25,
        });
        assert!(budget.try_retry(), "the burst grants the first retry");
        // Four denials at trickle 0.25 earn the next token: the stuck
        // client's retransmit rate is bounded but never zero.
        let denials = (0..4).filter(|_| !budget.try_retry()).count();
        assert_eq!(denials, 4);
        assert!(budget.try_retry());
    }

    #[test]
    fn shared_tuning_round_trips_knobs_and_windows() {
        let tuning = SharedTuning::new(16, 0.002, 8);
        assert_eq!(tuning.batch_size(), 16);
        assert_eq!(tuning.concurrency(), 8);
        tuning.apply(64, 0.1, 2);
        assert_eq!(tuning.batch_size(), 64);
        assert!((tuning.batch_delay() - 0.1).abs() < 1e-12);
        assert_eq!(tuning.concurrency(), 2);
        tuning.observe_latency(0.02);
        tuning.note_retransmission();
        tuning.note_suppressed();
        let window = tuning.take_window();
        assert_eq!(window.completed, 1);
        assert_eq!(window.retransmissions, 1);
        assert_eq!(window.suppressed, 1);
        assert_eq!(window.latencies.count(), 1);
        // The drain reset the window.
        let empty = tuning.take_window();
        assert_eq!(empty.completed, 0);
        assert_eq!(empty.latencies.count(), 0);
    }
}
