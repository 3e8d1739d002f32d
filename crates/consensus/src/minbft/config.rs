//! Cluster configuration and the protocol knobs (quorum sizes, batching,
//! pipelining) the replica step functions run under.

use crate::net::NetworkConfig;
use crate::{hybrid_fault_threshold, PARALLEL_RECOVERIES};

/// Configuration of a [`super::MinBftCluster`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MinBftConfig {
    /// Number of replicas at start.
    pub initial_replicas: usize,
    /// Replica-to-replica network profile.
    pub network: NetworkConfig,
    /// Per-message processing time at each node (seconds); this is the
    /// resource bottleneck that shapes the throughput curve of Fig. 10.
    pub processing_time: f64,
    /// Extra processing time per USIG signature created or verified
    /// (seconds). The paper's testbed signs with RSA-1024, which dominates
    /// the request path; batching amortizes exactly this cost. `0.0`
    /// disables the model (the pre-batching behaviour).
    pub signature_time: f64,
    /// Client request timeout before a view change is voted (paper: 30 s
    /// execution timer, scaled down to simulated seconds).
    pub request_timeout: f64,
    /// Number of executed sequences between checkpoints (paper: 100). Once
    /// a checkpoint is stable at `f + 1` replicas, logs are compacted to it.
    pub checkpoint_period: u64,
    /// Maximum number of requests the leader packs into one PREPARE
    /// (`1` = unbatched, the classical per-request pipeline).
    pub batch_size: usize,
    /// How long the leader waits for a batch to fill before proposing a
    /// partial one (seconds; irrelevant when `batch_size` is 1). For full
    /// batches to form under load this must exceed `batch_size` times the
    /// per-message processing cost — a smaller window flushes every batch
    /// before it fills.
    pub batch_delay: f64,
    /// PBFT-style high-watermark window: the maximum number of
    /// proposed-but-unexecuted sequence numbers the leader keeps in flight
    /// (`0` = unbounded). Every value runs the one proposal path: the
    /// leader parks requests in its FIFO queue and proposes from it while
    /// the window is open. With `W > 1` the leader proposes up to `W`
    /// batches concurrently, so USIG signing overlaps network round trips
    /// instead of serializing with them. The stable checkpoint is the low
    /// watermark (compaction floor); because execution is consecutive,
    /// proposals never run further than `checkpoint_period + W` past it.
    pub pipeline_window: usize,
    /// RNG seed for the network and the cluster.
    pub seed: u64,
}

impl Default for MinBftConfig {
    fn default() -> Self {
        MinBftConfig {
            initial_replicas: 4,
            network: NetworkConfig::default(),
            processing_time: 0.0008,
            signature_time: 0.0,
            request_timeout: 0.5,
            checkpoint_period: 100,
            batch_size: 1,
            batch_delay: 0.005,
            pipeline_window: 0,
            seed: 1,
        }
    }
}

/// A [`MinBftConfig`] field combination the protocol cannot run well under
/// (see [`MinBftConfig::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum MinBftConfigError {
    /// A duration field is negative or NaN.
    NegativeDuration {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `batch_delay` is shorter than the time the leader needs to even
    /// *accumulate* a full batch, so every batch flushes partial and the
    /// pipeline degrades to near-unbatched throughput.
    BatchWindowTooShort {
        /// The configured flush window.
        batch_delay: f64,
        /// The smallest window under which full batches can form
        /// (`batch_size × (processing_time + signature_time)`).
        required: f64,
    },
}

impl std::fmt::Display for MinBftConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinBftConfigError::NegativeDuration { field, value } => {
                write!(f, "minbft config `{field}` = {value} must be non-negative")
            }
            MinBftConfigError::BatchWindowTooShort {
                batch_delay,
                required,
            } => write!(
                f,
                "batch_delay = {batch_delay}s is below the batch-fill floor of {required}s \
                 (batch_size × per-message cost); batches would flush before filling"
            ),
        }
    }
}

impl std::error::Error for MinBftConfigError {}

impl MinBftConfig {
    /// The smallest `batch_delay` under which full batches can form: the
    /// leader needs `batch_size` per-message processing slots (each costing
    /// `processing_time + signature_time`) before the age-triggered partial
    /// flush fires. Zero when batching is off (`batch_size ≤ 1`).
    pub(crate) fn min_batch_delay(&self) -> f64 {
        if self.batch_size <= 1 {
            0.0
        } else {
            self.batch_size as f64 * (self.processing_time + self.signature_time)
        }
    }

    /// Validates the configuration, in particular the batching constraint
    /// `batch_delay ≥ batch_size × (processing_time + signature_time)`:
    /// a shorter flush window makes every batch flush partial before it can
    /// fill, silently erasing the throughput gain batching exists for.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), MinBftConfigError> {
        for (field, value) in [
            ("processing_time", self.processing_time),
            ("signature_time", self.signature_time),
            ("request_timeout", self.request_timeout),
            ("batch_delay", self.batch_delay),
        ] {
            if value.is_nan() || value < 0.0 {
                return Err(MinBftConfigError::NegativeDuration { field, value });
            }
        }
        let required = self.min_batch_delay();
        if self.batch_delay < required {
            return Err(MinBftConfigError::BatchWindowTooShort {
                batch_delay: self.batch_delay,
                required,
            });
        }
        Ok(())
    }

    /// Returns a copy with `batch_delay` raised to the batch-fill floor of
    /// `MinBftConfig::min_batch_delay` (and negative durations clamped to
    /// zero), so sweep and scenario code can take any grid point and still
    /// run a meaningfully batched pipeline.
    pub fn clamped(&self) -> Self {
        let mut config = self.clone();
        config.processing_time = config.processing_time.max(0.0);
        config.signature_time = config.signature_time.max(0.0);
        config.request_timeout = config.request_timeout.max(0.0);
        config.batch_delay = config.batch_delay.max(0.0).max(config.min_batch_delay());
        config
    }
}

/// The knobs the transport-agnostic replica step functions need (derived
/// from [`MinBftConfig`] by the simulated cluster and from
/// [`crate::threaded::ThreadedServiceConfig`] by the threaded service).
/// No quorum is a knob: each is a function of the membership size `n` the
/// deciding replica (or client) currently holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProtocolParams {
    /// Sequences between checkpoints (0 disables checkpoints).
    pub checkpoint_period: u64,
    /// Maximum requests per PREPARE.
    pub batch_size: usize,
    /// Seconds a partial batch may age before it is flushed.
    pub batch_delay: f64,
    /// Maximum proposed-but-unexecuted sequences in flight (0 = unbounded).
    pub pipeline_window: usize,
}

impl ProtocolParams {
    /// Commit quorum over a membership of `n`: a sequence executes once
    /// `f_k + k + 1` replicas voted COMMIT on its certificate, where
    /// `k = PARALLEL_RECOVERIES` and `f_k = hybrid_fault_threshold(n, k)` is
    /// the paper's threshold with the recovery overlap accounted for. Every
    /// ballot of [`ProtocolParams::view_change_quorum`] size then intersects
    /// the committers in at least `k + 1` voters (`c + v >= n + k + 1`), the
    /// paper's `N >= 2f + 1 + k`. Each of those voters reports the
    /// certificate it voted for: a rebuild keeps the replica's own prepared
    /// certificates and only merges the donor's into them
    /// (`checkpoint::reset_for_recovery`), so no number of rebuilds, on one
    /// control tick or across several, makes a committer forget a committed
    /// sequence. That rests on the adversary model
    /// (an intrusion corrupts outgoing messages, not the replica's memory),
    /// not on the USIG: the kept entries carry no UI. For odd `n` this is
    /// the classic `f + 1`; for even `n` it is one vote stronger.
    pub(crate) fn commit_quorum(n: usize) -> usize {
        (hybrid_fault_threshold(n, PARALLEL_RECOVERIES) + PARALLEL_RECOVERIES + 1).min(n)
    }

    /// View-change quorum over a membership of `n`: `n - f_k` votes, so a
    /// new view can still form with `f_k` replicas crashed while keeping
    /// the certificate-survival intersection described at
    /// [`ProtocolParams::commit_quorum`].
    pub(crate) fn view_change_quorum(n: usize) -> usize {
        n.saturating_sub(hybrid_fault_threshold(n, PARALLEL_RECOVERIES))
            .max(1)
    }

    /// Checkpoint quorum over a membership of `n`: `f + 1` matching
    /// announcements, the replica's own among them, with
    /// `f = hybrid_fault_threshold(n, 0)`, so at least one comes from a
    /// correct replica.
    pub(crate) fn checkpoint_quorum(n: usize) -> usize {
        hybrid_fault_threshold(n, 0) + 1
    }

    /// Reply quorum over a membership of `n`: `f_k + 1` matching replies,
    /// with `f_k` the threshold of [`ProtocolParams::commit_quorum`], so at
    /// least one comes from a correct replica. The simulated and the live
    /// client both wait for it.
    pub(crate) fn reply_quorum(n: usize) -> usize {
        hybrid_fault_threshold(n, PARALLEL_RECOVERIES) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::ProtocolParams;
    use crate::{hybrid_fault_threshold, PARALLEL_RECOVERIES};

    #[test]
    fn the_reply_quorum_outnumbers_the_hybrid_fault_threshold() {
        for n in 1..=16 {
            let f = hybrid_fault_threshold(n, PARALLEL_RECOVERIES);
            assert_eq!(ProtocolParams::reply_quorum(n), f + 1, "n = {n}");
            assert!(ProtocolParams::reply_quorum(n) > f, "n = {n}");
        }
    }

    #[test]
    fn commit_and_view_change_quorums_intersect_in_k_plus_one_voters() {
        for n in 2..=16 {
            let commit = ProtocolParams::commit_quorum(n);
            let view_change = ProtocolParams::view_change_quorum(n);
            assert_eq!(commit + view_change, n + PARALLEL_RECOVERIES + 1, "n = {n}");
            assert!(commit <= n && view_change <= n, "n = {n}");
        }
        assert_eq!(ProtocolParams::commit_quorum(1), 1);
        assert_eq!(ProtocolParams::view_change_quorum(1), 1);
    }
}
