//! Trace-driven open-loop client workloads for the fleet engine.
//!
//! The closed-loop driver of the sharded harness submits one keyed request
//! per shard per step — fine for oracle coverage, unrepresentative of
//! production traffic. This module generates **replayable many-client
//! traces** entirely from a seed (no trace files): per-shard arrival
//! processes with a diurnal rate shape and Zipf-distributed key popularity
//! over the keys the shard owns.
//!
//! * **Arrivals** are open-loop: each step contributes
//!   `base_rate · (1 + amplitude · sin(2π · step / period))` requests via a
//!   deterministic fluid accumulator (fractional demand carries over to the
//!   following step), so the offered load does not slow down when the shard
//!   is degraded. Demand that cannot be submitted (every pool client busy)
//!   queues in a bounded backlog and is retried — beyond the cap it is
//!   *shed*, which is exactly what an open-loop client population does.
//! * **Keys** follow a Zipf(`exponent`) popularity ranking over the shard's
//!   owned keys; the ranking itself is a seeded shuffle, so two shards with
//!   the same key count still hammer different hot keys.
//!
//! Everything is a pure function of `(seed, shard, config)`: the same fleet
//! seed replays the same trace byte-for-byte, which keeps the determinism
//! contract of the engine intact (`TraceWorkload` state lives in the
//! per-shard sub-executor and is never shared across shards).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the seeded open-loop trace workload (embedded in
/// [`ShardedScheduleConfig`](crate::simnet::ShardedScheduleConfig); `None`
/// there keeps the legacy closed-loop driver). In a counterexample document
/// every field is optional: an absent one is its [`Default`] value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct TraceWorkloadConfig {
    /// Mean requests per shard per step at the diurnal midline.
    pub base_rate: f64,
    /// Steps per diurnal cycle.
    pub diurnal_period: u32,
    /// Peak-to-midline swing in `[0, 1]` (`0` = flat rate).
    pub diurnal_amplitude: f64,
    /// Zipf popularity exponent over the shard's owned keys (`0` =
    /// uniform).
    pub zipf_exponent: f64,
}

/// Maximum deferred (unsubmittable) trace requests retained per shard;
/// demand beyond the cap is shed, keeping the workload open-loop.
pub(crate) const BACKLOG_CAP: u32 = 16;

impl Default for TraceWorkloadConfig {
    fn default() -> Self {
        TraceWorkloadConfig {
            base_rate: 2.0,
            diurnal_period: 16,
            diurnal_amplitude: 0.6,
            zipf_exponent: 1.1,
        }
    }
}

impl TraceWorkloadConfig {
    /// The offered rate at `step` (requests per step).
    pub(crate) fn rate(&self, step: u32) -> f64 {
        let phase = if self.diurnal_period == 0 {
            0.0
        } else {
            2.0 * std::f64::consts::PI * f64::from(step) / f64::from(self.diurnal_period)
        };
        (self.base_rate * (1.0 + self.diurnal_amplitude.clamp(0.0, 1.0) * phase.sin())).max(0.0)
    }
}

/// One shard's seeded trace generator: diurnal fluid arrivals plus Zipf key
/// draws over a popularity-ranked shuffle of the shard's owned keys.
#[derive(Debug, Clone)]
pub(crate) struct TraceWorkload {
    config: TraceWorkloadConfig,
    rng: StdRng,
    /// Fractional demand carried to the next step.
    carry: f64,
    /// Owned keys in popularity-rank order (rank 0 = hottest).
    ranked_keys: Vec<u32>,
    /// Cumulative Zipf weights aligned with `ranked_keys`.
    cumulative: Vec<f64>,
}

impl TraceWorkload {
    /// Builds the generator for one shard from its split-stream seed and
    /// owned keys.
    ///
    /// # Panics
    ///
    /// Panics when `owned_keys` is empty (every shard owns at least one
    /// key by construction of the partitioner).
    pub fn new(seed: u64, owned_keys: &[u32], config: &TraceWorkloadConfig) -> Self {
        assert!(!owned_keys.is_empty(), "a shard must own at least one key");
        // A fixed scramble keeps the workload stream independent of the
        // shard's fault-schedule stream, which uses the same split seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ead_5c0e_d00d_f00du64);
        let mut ranked_keys = owned_keys.to_vec();
        // Seeded Fisher-Yates: the popularity ranking differs per shard.
        for index in (1..ranked_keys.len()).rev() {
            let other = rng.random_range(0..index + 1);
            ranked_keys.swap(index, other);
        }
        let exponent = config.zipf_exponent.max(0.0);
        let mut total = 0.0;
        let cumulative = ranked_keys
            .iter()
            .enumerate()
            .map(|(rank, _)| {
                total += (rank as f64 + 1.0).powf(-exponent);
                total
            })
            .collect();
        TraceWorkload {
            config: config.clone(),
            rng,
            carry: 0.0,
            ranked_keys,
            cumulative,
        }
    }

    /// The number of requests this shard offers at `step` (deterministic:
    /// the diurnal rate plus the fractional carry from earlier steps).
    pub(crate) fn arrivals(&mut self, step: u32) -> u32 {
        self.carry += self.config.rate(step);
        let whole = self.carry.floor().max(0.0);
        self.carry -= whole;
        whole as u32
    }

    /// Draws one key from the Zipf popularity distribution.
    pub(crate) fn draw_key(&mut self) -> u32 {
        let total = *self.cumulative.last().expect("at least one owned key");
        let point = self.rng.random::<f64>() * total;
        let index = self
            .cumulative
            .partition_point(|&weight| weight < point)
            .min(self.ranked_keys.len() - 1);
        self.ranked_keys[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_integrate_to_the_offered_rate() {
        let config = TraceWorkloadConfig {
            base_rate: 1.5,
            diurnal_amplitude: 0.5,
            ..TraceWorkloadConfig::default()
        };
        let mut workload = TraceWorkload::new(7, &[1, 2, 3, 4], &config);
        let horizon = 64;
        let total: u32 = (0..horizon).map(|step| workload.arrivals(step)).sum();
        let offered: f64 = (0..horizon).map(|step| config.rate(step)).sum();
        // The fluid accumulator never drifts more than one request from the
        // integral of the rate curve.
        assert!(
            (f64::from(total) - offered).abs() <= 1.0,
            "{total} vs {offered}"
        );
    }

    #[test]
    fn diurnal_shape_peaks_and_troughs() {
        let config = TraceWorkloadConfig {
            base_rate: 4.0,
            diurnal_period: 16,
            diurnal_amplitude: 0.9,
            ..TraceWorkloadConfig::default()
        };
        let peak = config.rate(4); // sin = 1 at a quarter period
        let trough = config.rate(12); // sin = -1 at three quarters
        assert!(peak > 7.0, "{peak}");
        assert!(trough < 1.0, "{trough}");
        assert!(config.rate(0) > trough && config.rate(0) < peak);
    }

    #[test]
    fn zipf_draws_favor_the_hot_ranks_and_replay() {
        let config = TraceWorkloadConfig {
            zipf_exponent: 1.2,
            ..TraceWorkloadConfig::default()
        };
        let keys: Vec<u32> = (0..32).collect();
        let mut a = TraceWorkload::new(42, &keys, &config);
        let mut b = TraceWorkload::new(42, &keys, &config);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..4000 {
            let key = a.draw_key();
            assert_eq!(key, b.draw_key(), "same seed must replay the trace");
            *counts.entry(key).or_insert(0u32) += 1;
        }
        let hottest = a.ranked_keys[0];
        let coldest = *a.ranked_keys.last().unwrap();
        assert!(
            counts.get(&hottest).copied().unwrap_or(0)
                > 5 * counts.get(&coldest).copied().unwrap_or(0).max(1),
            "Zipf skew missing: {counts:?}"
        );
    }

    #[test]
    fn rankings_differ_across_seeds() {
        let keys: Vec<u32> = (0..64).collect();
        let config = TraceWorkloadConfig::default();
        let a = TraceWorkload::new(1, &keys, &config);
        let b = TraceWorkload::new(2, &keys, &config);
        assert_ne!(a.ranked_keys, b.ranked_keys);
    }
}
