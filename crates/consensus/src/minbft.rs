//! Reconfigurable MinBFT over a pluggable transport.
//!
//! MinBFT (Veronese et al.) is the consensus protocol of the TOLERANCE
//! architecture (Section IV and Appendix G of the paper). It assumes the
//! hybrid failure model: replicas may behave arbitrarily, but each hosts a
//! tamperproof USIG counter, which raises the fault tolerance to
//! `f = (N - 1)/2` (or `(N - 1 - k)/2` when `k` parallel recoveries are
//! allowed, Proposition 1). The normal-case message pattern is
//! REQUEST → PREPARE (leader, with UI) → COMMIT (all, with UI) → REPLY, and
//! the protocol additionally supports checkpoints, view changes, state
//! transfer for recovered replicas, and the JOIN/EVICT reconfiguration that
//! the paper's system controller uses to adjust the replication factor
//! (Fig. 17).
//!
//! Two data-plane features make the pipeline production-shaped:
//!
//! * **Leader-side batching** — a PREPARE carries a *batch* of client
//!   requests, so one USIG signature and one quorum round are amortized
//!   over up to [`MinBftConfig::batch_size`] requests.
//! * **Checkpoint-driven log compaction** — once `f + 1` replicas announce
//!   the same state digest at a checkpoint sequence, each replica truncates
//!   its executed log, prepared certificates, commit votes and checkpoint
//!   ballots below that *stable checkpoint*; lagging replicas re-acquire
//!   compacted history through state transfer instead of message replay.
//!
//! The replica state machine ([`Replica`] plus the `replica_*` step
//! functions) is transport-agnostic: the simulated [`MinBftCluster`] drives
//! it over [`crate::net::SimNetwork`], and [`crate::threaded`] runs the very
//! same code with one OS thread per replica over
//! [`crate::transport::ThreadedTransport`]. Each replica also has a
//! per-message processing time (plus an optional per-signature cost), which
//! is what makes the simulated throughput saturate and decrease with the
//! number of replicas as in Fig. 10 of the paper.

use crate::crypto::{combine, digest, Digest, KeyDirectory, KeyPair};
use crate::metrics::{RetryBudget, RetryBudgetConfig};
use crate::net::{NetworkConfig, SimNetwork};
use crate::transport::Transport;
use crate::usig::{UniqueIdentifier, Usig, UsigVerifier};
use crate::workload::{Arrival, OpStream, WorkloadConfig, WorkloadReport};
use crate::{hybrid_fault_threshold, NodeId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// How a compromised replica misbehaves. Injected by the emulation layer's
/// attacker; the paper's attacker randomly chooses between participating,
/// staying silent, and sending random messages after a compromise
/// (Section VIII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ByzantineMode {
    /// The replica follows the protocol (it is healthy or the attacker chose
    /// to keep participating correctly).
    Correct,
    /// The replica stops sending messages.
    Silent,
    /// The replica participates but with corrupted values: wrong batch
    /// digests in COMMITs and wrong values in REPLYs.
    Arbitrary,
}

/// A protocol-aware attacker strategy a compromised replica runs with. Unlike
/// [`ByzantineMode`] (crash-style silence or value corruption), these
/// adversaries exploit the *protocol structure* while staying within the
/// USIG's monotonic-counter limits — the attacker can never forge or reuse a
/// counter, so every attack works *around* the trusted component:
///
/// * [`AttackerKind::EquivocatingLeader`] — as leader, propose two
///   conflicting batches for the same sequence number (each with its own
///   fresh UI) to disjoint halves of the cluster.
/// * [`AttackerKind::VoteWithholding`] — send COMMIT votes to everyone
///   *except* a targeted quorum of replicas, starving them of commits.
/// * [`AttackerKind::DelayedVotes`] — hold COMMIT and VIEW-CHANGE votes and
///   release them only at the view-change timeout boundary.
/// * [`AttackerKind::LyingDonor`] — answer state-transfer pulls with a
///   forged frontier (corrupted digests, inflated execution frontier).
/// * [`AttackerKind::ReplySuppression`] — drop REPLY messages to a targeted
///   client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AttackerKind {
    /// Conflicting PREPAREs for one sequence, split across the membership.
    EquivocatingLeader,
    /// COMMIT votes withheld from a targeted set of replicas.
    VoteWithholding,
    /// COMMIT/VIEW-CHANGE votes delayed to the timeout boundary.
    DelayedVotes,
    /// State transfers answered with forged frontiers.
    LyingDonor,
    /// REPLYs to a targeted client suppressed.
    ReplySuppression,
}

impl AttackerKind {
    /// Every attacker variant, in a stable order (the adversary-matrix axis).
    pub const ALL: [AttackerKind; 5] = [
        AttackerKind::EquivocatingLeader,
        AttackerKind::VoteWithholding,
        AttackerKind::DelayedVotes,
        AttackerKind::LyingDonor,
        AttackerKind::ReplySuppression,
    ];

    /// A stable kebab-case name (scenario names, counterexample JSON).
    pub fn name(&self) -> &'static str {
        match self {
            AttackerKind::EquivocatingLeader => "equivocating-leader",
            AttackerKind::VoteWithholding => "vote-withholding",
            AttackerKind::DelayedVotes => "delayed-votes",
            AttackerKind::LyingDonor => "lying-donor",
            AttackerKind::ReplySuppression => "reply-suppression",
        }
    }
}

/// An operation on the replicated service: the paper's web service offers a
/// deterministic read and write of a register (Section VII-B), extended here
/// with a keyed variant so workload generators can exercise a key-value
/// service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Operation {
    /// Return the current register state.
    Read,
    /// Replace the register with the given value.
    Write(u64),
    /// Store `value` under `key` in the replicated key-value map.
    Put {
        /// The key to write.
        key: u32,
        /// The value to store.
        value: u64,
    },
    /// Read the value stored under `key` (0 when absent).
    Get {
        /// The key to read.
        key: u32,
    },
    /// Stage `value` under `key` on behalf of cross-shard transaction `tx`
    /// (round one of the sharded MultiPut protocol, see
    /// [`crate::sharded`]). The staged write is replicated and durable but
    /// **invisible** to [`Operation::Get`] until the matching
    /// [`Operation::TxCommit`] executes, so an abandoned transaction leaves
    /// no observable trace.
    TxReserve {
        /// The transaction identifier (chosen by the routing client).
        tx: u64,
        /// The key to stage a write for.
        key: u32,
        /// The value to stage.
        value: u64,
    },
    /// Apply the write staged by [`Operation::TxReserve`] for (`tx`, `key`)
    /// (round two of the MultiPut protocol). Idempotent at the protocol
    /// level: a commit that finds nothing staged (already applied by an
    /// earlier commit, or never reserved) answers the key's current value
    /// and changes nothing — which is what lets a recovery client re-drive
    /// an interrupted commit round safely.
    TxCommit {
        /// The transaction identifier.
        tx: u64,
        /// The key whose staged write is applied.
        key: u32,
    },
    /// Discard the write staged for (`tx`, `key`) without applying it (the
    /// abort path of the MultiPut protocol).
    TxAbort {
        /// The transaction identifier.
        tx: u64,
        /// The key whose staged write is discarded.
        key: u32,
    },
}

impl Operation {
    /// The key this operation addresses, when it is a keyed (routable)
    /// operation; `None` for the register operations. This is what the
    /// sharded service plane's router partitions on.
    pub fn key(&self) -> Option<u32> {
        match *self {
            Operation::Read | Operation::Write(_) => None,
            Operation::Put { key, .. }
            | Operation::Get { key }
            | Operation::TxReserve { key, .. }
            | Operation::TxCommit { key, .. }
            | Operation::TxAbort { key, .. } => Some(key),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Request {
    /// The issuing client.
    pub client: NodeId,
    /// Client-local request identifier.
    pub id: u64,
    /// The requested operation.
    pub operation: Operation,
}

/// Pseudo-client id historically used for gap-filling no-op requests; kept
/// for API compatibility (new leaders now fill sequence-number gaps with
/// *empty batches*, which execute nothing and append nothing to the log).
pub const NOOP_CLIENT: NodeId = NodeId::MAX;

impl Request {
    /// A no-op request that is a pure function of the sequence number (see
    /// [`NOOP_CLIENT`]).
    pub fn noop(sequence: u64) -> Request {
        Request {
            client: NOOP_CLIENT,
            id: sequence,
            operation: Operation::Read,
        }
    }

    /// The digest binding the client, request id and operation. Public so
    /// invariant oracles (e.g. the validity check of the fault-injection
    /// harness) can match committed digests against submitted requests.
    pub fn digest(&self) -> Digest {
        let mut bytes = Vec::with_capacity(32);
        bytes.extend_from_slice(&self.client.to_le_bytes());
        bytes.extend_from_slice(&self.id.to_le_bytes());
        match self.operation {
            Operation::Read => bytes.push(0),
            Operation::Write(v) => {
                bytes.push(1);
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            Operation::Put { key, value } => {
                bytes.push(2);
                bytes.extend_from_slice(&key.to_le_bytes());
                bytes.extend_from_slice(&value.to_le_bytes());
            }
            Operation::Get { key } => {
                bytes.push(3);
                bytes.extend_from_slice(&key.to_le_bytes());
            }
            Operation::TxReserve { tx, key, value } => {
                bytes.push(4);
                bytes.extend_from_slice(&tx.to_le_bytes());
                bytes.extend_from_slice(&key.to_le_bytes());
                bytes.extend_from_slice(&value.to_le_bytes());
            }
            Operation::TxCommit { tx, key } => {
                bytes.push(5);
                bytes.extend_from_slice(&tx.to_le_bytes());
                bytes.extend_from_slice(&key.to_le_bytes());
            }
            Operation::TxAbort { tx, key } => {
                bytes.push(6);
                bytes.extend_from_slice(&tx.to_le_bytes());
                bytes.extend_from_slice(&key.to_le_bytes());
            }
        }
        digest(&bytes)
    }
}

/// The digest a USIG certificate binds for a batched PREPARE: a chain over
/// the batch's request digests. The empty batch (a gap-filling no-op) has a
/// fixed digest, so competing leaders fill the same gap identically.
pub fn batch_digest(requests: &[Request]) -> Digest {
    let mut acc = digest(b"minbft-batch");
    for request in requests {
        acc = combine(acc, request.digest());
    }
    acc
}

/// The first absolute log position at which two compaction-truncated
/// executed logs disagree, comparing only the window both retain (each log
/// is `(absolute offset of its first entry, retained suffix)`). `None`
/// means the overlap — possibly empty — is identical. The single
/// offset-aware comparison shared by [`MinBftCluster::logs_are_consistent`],
/// the threaded service's shutdown check and the simnet agreement oracle.
pub fn first_log_divergence(
    start_a: u64,
    log_a: &[Digest],
    start_b: u64,
    log_b: &[Digest],
) -> Option<u64> {
    let lo = start_a.max(start_b);
    let hi = (start_a + log_a.len() as u64).min(start_b + log_b.len() as u64);
    if lo >= hi {
        return None;
    }
    let window_a = &log_a[(lo - start_a) as usize..(hi - start_a) as usize];
    let window_b = &log_b[(lo - start_b) as usize..(hi - start_b) as usize];
    (0..window_a.len())
        .find(|&p| window_a[p] != window_b[p])
        .map(|p| lo + p as u64)
}

/// A prepared certificate as reported in view changes and state transfers:
/// `(sequence, view, batch)`.
pub type PreparedCertificate = (u64, u64, Vec<Request>);

/// One voter's contribution to a view-change ballot:
/// `(high_sequence, stable_sequence, prepared certificates)`.
type ViewChangeVote = (u64, u64, Vec<PreparedCertificate>);

/// Control-plane commands carried over the same [`Transport`] as protocol
/// traffic, so the two-level feedback controllers can actuate a *running*
/// cluster without a central coordinator. The simulated
/// [`MinBftCluster`] actuates through its direct methods
/// ([`MinBftCluster::recover_replica`], [`MinBftCluster::add_replica`], …);
/// the threaded service ([`crate::threaded::ThreadedCluster`]) delivers
/// these messages instead and the replicas apply the identical transitions
/// on themselves inside [`replica_on_message`].
///
/// In the paper's architecture these commands travel on the trusted
/// control channel between a node's privileged domain and its replica
/// (Section IV), which is why a Silent/compromised replica still processes
/// them: recovery must reach a replica precisely when it misbehaves.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ControlMessage {
    /// Node controller → its replica: rebuild the replica. The rebuild is
    /// **two-phase**: the replica first marks itself `pending_rebuild` and
    /// pulls state ([`Message::StateRequest`]) while continuing to
    /// participate; only when a transfer at or beyond its own execution
    /// frontier arrives does it wipe its protocol state and adopt the
    /// transfer in the same step. Wiping eagerly would erase the cluster's
    /// only copy of the committed suffix whenever the target is the unique
    /// live frontier holder (the agreement violation the simulated path's
    /// recovery deferral guards against). The tamperproof USIG survives the
    /// rebuild — its monotonic counter is exactly the state MinBFT's
    /// trusted component preserves across recoveries — so peers need no
    /// counter-reset coordination.
    Recover,
    /// System controller → every replica: install a new configuration
    /// epoch/membership (the JOIN/EVICT reconfiguration). Replicas bar
    /// themselves from leading their current view and vote a view change,
    /// exactly like the simulated cluster's reconfiguration round; a
    /// replica absent from the new membership marks itself evicted.
    Reconfigure {
        /// The new configuration epoch (must exceed the replica's).
        epoch: u64,
        /// The new membership.
        membership: Vec<NodeId>,
    },
    /// Fault injection for tests and controlled scenarios: sets the
    /// replica's Byzantine mode (the intrusion the IDS observes).
    Compromise {
        /// The behaviour to adopt.
        mode: ByzantineMode,
    },
}

/// Protocol messages (Fig. 17 of the paper, batched).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Message {
    /// Client request, broadcast to all replicas.
    Request(Request),
    /// Leader proposal carrying a USIG unique identifier over the batch
    /// digest — one signature amortized over the whole batch.
    Prepare {
        /// Current view.
        view: u64,
        /// Assigned sequence number (one per batch).
        sequence: u64,
        /// The proposed batch of requests (empty = gap-filling no-op).
        requests: Vec<Request>,
        /// The leader's USIG certificate over [`batch_digest`].
        ui: UniqueIdentifier,
    },
    /// Acknowledgement of a PREPARE, also carrying a USIG identifier.
    Commit {
        /// Current view.
        view: u64,
        /// Sequence number being committed.
        sequence: u64,
        /// Digest of the committed batch.
        batch_digest: Digest,
        /// The sender's USIG certificate.
        ui: UniqueIdentifier,
    },
    /// Reply to the client after execution.
    Reply {
        /// The request being answered.
        request_id: u64,
        /// The operation's result value.
        value: u64,
        /// The sequence number at which the request executed.
        sequence: u64,
    },
    /// Periodic checkpoint announcement: `f + 1` matching digests at one
    /// sequence make the checkpoint *stable* and trigger log compaction.
    Checkpoint {
        /// Sequence number of the checkpoint.
        sequence: u64,
        /// Absolute number of executed requests at the checkpoint (the log
        /// length the sender truncates to once the checkpoint stabilizes).
        log_len: u64,
        /// Digest of the service state at the checkpoint.
        state_digest: Digest,
    },
    /// Vote to move to a new view (leader suspected).
    ViewChange {
        /// The configuration epoch the voter is in (see
        /// [`Message::NewView::epoch`]); votes from other epochs are
        /// ignored.
        epoch: u64,
        /// The proposed view.
        new_view: u64,
        /// The sender's high-water mark: the highest sequence number it has
        /// executed *or prepared*. The new leader continues strictly above
        /// the highest reported mark, so it can never re-assign a sequence
        /// number that some replica may already have executed (every
        /// executed sequence is prepared at its full commit quorum, and the
        /// view-change quorum of `n - f` voters intersects every commit
        /// quorum).
        high_sequence: u64,
        /// The voter's stable-checkpoint sequence: certificates at or below
        /// it were compacted away, so a replica whose execution frontier
        /// lies below the quorum's highest stable checkpoint must re-acquire
        /// state by transfer instead of replaying certificates.
        stable_sequence: u64,
        /// The voter's retained prepared certificates — the certificate
        /// transfer of the view change. The new leader re-proposes, for
        /// every sequence number up to the high-water mark, the highest-view
        /// batch reported for it (and an empty batch when none is): a
        /// sequence executed anywhere above the stable frontier was prepared
        /// at a full commit quorum, so the view-change quorum always hears
        /// about it.
        prepared: Vec<PreparedCertificate>,
    },
    /// Installation of a new view by its leader.
    NewView {
        /// The configuration epoch this view belongs to. Every JOIN/EVICT
        /// reconfiguration bumps the epoch; a NEW-VIEW from a previous
        /// epoch still in flight must be ignored, because adopting its
        /// (stale) membership would re-map `view → leader` differently on
        /// different replicas — two honest leaders of the same view.
        epoch: u64,
        /// The new view number.
        view: u64,
        /// The membership of the new view.
        membership: Vec<NodeId>,
        /// The sequence number from which the new leader continues.
        next_sequence: u64,
    },
    /// Pull-based request for a state transfer, broadcast by a replica that
    /// fell behind the cluster's stable checkpoint (its compacted history
    /// cannot be replayed from retained certificates).
    StateRequest {
        /// The requester's configuration epoch.
        epoch: u64,
    },
    /// State transfer to a recovering, joining or lagging replica.
    StateTransfer {
        /// The donor's configuration epoch (stale transfers are ignored).
        epoch: u64,
        /// The current register state.
        value: u64,
        /// The replicated key-value map.
        kv: Vec<(u32, u64)>,
        /// The staged (reserved, uncommitted) transactional writes as
        /// `(transaction, key, value)` — part of the replicated state, so a
        /// recovered replica can still execute the commit round of an
        /// in-flight MultiPut.
        staged: Vec<(u64, u32, u64)>,
        /// Absolute index of the first entry of `executed` (requests below
        /// it were compacted at the stable checkpoint).
        log_start: u64,
        /// The donor's execution frontier (highest executed sequence).
        last_executed: u64,
        /// Running digest chain over *all* executed requests since genesis
        /// (compaction-independent, the basis of checkpoint digests).
        log_chain: Digest,
        /// The donor's stable-checkpoint sequence.
        stable_sequence: u64,
        /// The retained suffix of executed request digests.
        executed: Vec<Digest>,
        /// The current view.
        view: u64,
        /// The current membership.
        membership: Vec<NodeId>,
        /// The per-client reply cache `(client, request_id, value,
        /// sequence)`, so a recovered replica can re-answer retransmitted
        /// requests it executed before the recovery.
        replies: Vec<(NodeId, u64, u64, u64)>,
        /// The donor's retained prepared certificates. A recovered replica
        /// must re-acquire them: view-change ballots re-propose from these
        /// certificates, and a ballot formed by amnesiac voters would
        /// no-op-fill sequence numbers that already executed elsewhere.
        prepared: Vec<PreparedCertificate>,
        /// The digest-chain value at `log_start` (the fold of every
        /// compacted request digest over the genesis digest). Receivers
        /// verify that folding `executed` over it reproduces `log_chain` —
        /// a lying donor cannot serve a forged or truncated frontier
        /// without breaking the chain.
        chain_base: Digest,
        /// The donor's per-sender high-water marks of accepted USIG
        /// counters, sorted by sender. A recovered replica adopts them as
        /// its FIFO baseline — without this, every post-recovery PREPARE
        /// would look like a gap and park forever.
        ui_high: Vec<(NodeId, u64)>,
    },
    /// Request to re-send the sender's own UI-certified messages starting at
    /// a counter value. Sent when a PREPARE arrives above the per-sender
    /// FIFO cursor (see [`Replica::ui_high`]): the gap is either reordering
    /// (the resend is a no-op by the time it arrives) or loss, which only
    /// the original sender can repair from its retained message log.
    UiResendRequest {
        /// First missing counter value.
        from_counter: u64,
    },
    /// A control-plane command (see [`ControlMessage`]). The threaded
    /// service delivers these on a dedicated per-replica channel modelling
    /// the trusted link from the node's privileged domain (processed even
    /// by crashed/Silent replicas — a compromise cannot sever it); the
    /// simulated cluster actuates through its direct methods instead and
    /// never routes `Control` over [`SimNetwork`], whose dispatch gate
    /// would drop it like any other traffic to a crashed/Silent replica.
    Control(ControlMessage),
}

/// One committed batch as observed at one replica: the trace hook that
/// fault-injection harnesses use to check agreement (no two correct replicas
/// commit different digests at the same sequence number) and validity (every
/// committed digest was submitted by a client).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CommitRecord {
    /// The replica that executed the batch.
    pub replica: NodeId,
    /// The view in which the replica executed it.
    pub view: u64,
    /// The sequence number of the batch.
    pub sequence: u64,
    /// The digest the replica executed at this sequence number (the request
    /// digest for singleton batches, a digest chain otherwise).
    pub digest: Digest,
}

/// Configuration of a [`MinBftCluster`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MinBftConfig {
    /// Number of replicas at start.
    pub initial_replicas: usize,
    /// Number of parallel recoveries allowed (the `k` of Proposition 1).
    pub parallel_recoveries: usize,
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
    /// (`0` = unbounded, the pre-pipelining behaviour). With `W > 1` the
    /// leader proposes up to `W` batches concurrently, so USIG signing
    /// overlaps network round trips instead of serializing with them. The
    /// stable checkpoint is the low watermark (compaction floor); because
    /// execution is consecutive, proposals never run further than
    /// `checkpoint_period + W` past it.
    pub pipeline_window: usize,
    /// RNG seed for the network and the cluster.
    pub seed: u64,
}

impl Default for MinBftConfig {
    fn default() -> Self {
        MinBftConfig {
            initial_replicas: 4,
            parallel_recoveries: 1,
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
    pub fn min_batch_delay(&self) -> f64 {
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
    /// [`MinBftConfig::min_batch_delay`] (and negative durations clamped to
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
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProtocolParams {
    /// Commit/checkpoint quorum parameter (`f + 1` votes commit).
    pub f: usize,
    /// Sequences between checkpoints (0 disables checkpoints).
    pub checkpoint_period: u64,
    /// Maximum requests per PREPARE.
    pub batch_size: usize,
    /// Seconds a partial batch may age before it is flushed.
    pub batch_delay: f64,
    /// Maximum proposed-but-unexecuted sequences in flight (0 = unbounded).
    pub pipeline_window: usize,
    /// Replicas that may be mid-recovery concurrently (the cluster's
    /// `parallel_recoveries` knob). A proactively recovered replica is
    /// amnesiac about certificates above its adopted snapshot, so the
    /// commit and view-change quorums are sized so that every ballot
    /// still intersects a *non-amnesiac* certificate holder (see
    /// [`ProtocolParams::commit_quorum`] and
    /// [`ProtocolParams::view_change_quorum`]).
    pub recoveries: usize,
}

impl ProtocolParams {
    /// Commit quorum over a membership of `n`: a sequence executes once
    /// `f_k + recoveries + 1` replicas voted COMMIT on its certificate,
    /// where `f_k = hybrid_fault_threshold(n, recoveries)` is the paper's
    /// threshold with the recovery overlap accounted for. Every ballot of
    /// [`ProtocolParams::view_change_quorum`] size then intersects the
    /// committers in at least `recoveries + 1` voters — one of whom still
    /// holds the certificate even if `recoveries` committers were
    /// re-imaged from a snapshot taken before they executed the sequence
    /// (`c + v >= n + recoveries + 1`). For odd `n` this is the classic
    /// `f + 1`; for even `n` it is one vote stronger.
    pub(crate) fn commit_quorum(&self, n: usize) -> usize {
        (crate::hybrid_fault_threshold(n, self.recoveries) + self.recoveries + 1).min(n)
    }

    /// View-change quorum over a membership of `n`: `n - f_k` votes, so a
    /// new view can still form with `f_k` replicas crashed while keeping
    /// the certificate-survival intersection described at
    /// [`ProtocolParams::commit_quorum`].
    pub(crate) fn view_change_quorum(&self, n: usize) -> usize {
        n.saturating_sub(crate::hybrid_fault_threshold(n, self.recoveries))
            .max(1)
    }
}

/// Whether the leader's proposal window is open: with pipelining enabled
/// (`pipeline_window > 0`) at most `pipeline_window` sequences may be
/// proposed beyond the execution frontier. In-flight count is
/// `next_sequence - 1 - last_executed`, so the window is open while
/// `next_sequence <= last_executed + W`. Always open when the knob is 0
/// (the legacy unbounded pipeline).
pub(crate) fn window_open(replica: &Replica, params: &ProtocolParams) -> bool {
    params.pipeline_window == 0
        || replica.next_sequence <= replica.last_executed + params.pipeline_window as u64
}

/// Messages produced by one replica step, plus the number of USIG
/// signatures it created (the cost model input).
#[derive(Debug, Default)]
pub(crate) struct StepOutput {
    /// Point-to-point messages `(destination, message)`.
    pub outgoing: Vec<(NodeId, Message)>,
    /// Messages for every other cluster member.
    pub broadcast: Vec<Message>,
    /// USIG certificates created during the step.
    pub created_uis: u32,
}

impl StepOutput {
    fn is_empty(&self) -> bool {
        self.outgoing.is_empty() && self.broadcast.is_empty()
    }

    /// Sends the step's traffic through a transport.
    pub(crate) fn flush<T: Transport<Message>>(
        self,
        transport: &mut T,
        from: NodeId,
        members: &[NodeId],
    ) {
        if self.is_empty() {
            return;
        }
        let broadcasts = self.broadcast.into_iter().map(|m| (from, m)).collect();
        let unicasts = self
            .outgoing
            .into_iter()
            .map(|(to, m)| (from, to, m))
            .collect();
        transport.send_batch(members, broadcasts, unicasts);
    }
}

/// One MinBFT replica: the transport-agnostic protocol state machine.
pub(crate) struct Replica {
    pub(crate) id: NodeId,
    usig: Usig,
    verifier: UsigVerifier,
    /// The replica's copy of the public-key directory, retained so the
    /// message-driven `Recover`/`Reconfigure` control commands can rebuild
    /// the verifier (and register deterministically derived keys of newly
    /// joined members) without a central coordinator.
    directory: KeyDirectory,
    /// The key-derivation seed (see [`KeyPair::derive`]), retained for the
    /// same reason.
    seed: u64,
    /// Set by a [`ControlMessage::Reconfigure`] whose membership excludes
    /// this replica; the hosting event loop exits the replica thread.
    pub(crate) evicted: bool,
    /// Execution frontier this replica held when it last rebuilt itself
    /// through the message-driven [`ControlMessage::Recover`] path. A
    /// state transfer below this floor is refused: adopting it would roll
    /// the replica back past sequences it already executed — if it was the
    /// unique live frontier holder, the committed suffix would be erased
    /// and re-assigned by the next gap-filling view change. The replica
    /// stays in `needs_state` (re-announcing its pull) until a peer
    /// reaches the floor.
    recovery_floor: u64,
    /// Phase one of the message-driven rebuild (see
    /// [`ControlMessage::Recover`]): a state pull is outstanding, but the
    /// protocol state survives until a frontier-covering transfer arrives.
    pub(crate) pending_rebuild: bool,
    pub(crate) byzantine: ByzantineMode,
    pub(crate) crashed: bool,
    pub(crate) view: u64,
    pub(crate) membership: Vec<NodeId>,
    /// The replicated register.
    pub(crate) value: u64,
    /// The replicated key-value map.
    pub(crate) kv: BTreeMap<u32, u64>,
    /// Writes staged by [`Operation::TxReserve`] and not yet committed or
    /// aborted, keyed by `(transaction, key)`. Part of the replicated state
    /// (every replica executes the same reserve/commit sequence), so it
    /// enters the state digest and rides state transfers.
    pub(crate) staged: BTreeMap<(u64, u32), u64>,
    /// Retained suffix of the executed-request digest log; entries below
    /// `log_start` were compacted at the stable checkpoint.
    pub(crate) executed: Vec<Digest>,
    /// Absolute index of `executed[0]` in the full (uncompacted) log.
    pub(crate) log_start: u64,
    /// Running digest chain over all executed requests since genesis; this
    /// is what makes state digests comparable between replicas that
    /// compacted at different checkpoints.
    pub(crate) log_chain: Digest,
    /// Highest executed sequence number.
    pub(crate) last_executed: u64,
    pub(crate) next_sequence: u64,
    /// Sequence of the stable checkpoint (everything at or below it is
    /// compacted: no certificates, no commit votes, no log entries).
    pub(crate) stable_sequence: u64,
    /// Prepared batches by sequence number, with the view in which each
    /// PREPARE was accepted (used to pick the freshest certificate during
    /// view changes). Pruned below the stable checkpoint.
    prepared: BTreeMap<u64, (u64, Vec<Request>)>,
    /// Commit votes keyed by `(sequence, batch digest)`, so votes arriving
    /// before the corresponding PREPARE are not lost. Pruned below the
    /// stable checkpoint.
    commit_votes: HashMap<(u64, Digest), HashSet<NodeId>>,
    pending: VecDeque<Request>,
    seen_requests: HashSet<(NodeId, u64)>,
    /// Requests this replica itself sequenced as leader, with their
    /// assigned sequence numbers. A proposal that never executes must be
    /// forgotten when the view changes — otherwise its `seen_requests`
    /// marker suppresses every future re-proposal and re-reply, and the
    /// client stalls forever.
    proposed: HashMap<(NodeId, u64), u64>,
    /// Last executed request per client: `(request_id, value, sequence)`.
    /// Re-sent when a client retransmits an already-executed request (its
    /// original REPLY may have been lost) — without this cache a client can
    /// stall forever on a lossy network. Because clients issue request ids
    /// monotonically, this cache also provides the duplicate detection for
    /// executed requests whose `seen_requests` entries were compacted.
    last_replies: HashMap<NodeId, (u64, u64, u64)>,
    request_first_seen: HashMap<(NodeId, u64), SimTime>,
    /// Per proposed view: each voter's high-water mark, stable checkpoint
    /// and reported prepared certificates (see [`Message::ViewChange`]).
    view_change_votes: HashMap<u64, HashMap<NodeId, ViewChangeVote>>,
    /// This replica's own checkpoint announcements:
    /// `sequence → (log_len, state digest)`. Pruned at compaction.
    own_checkpoints: BTreeMap<u64, (u64, Digest)>,
    /// Checkpoint votes from other replicas:
    /// `sequence → digest → voters`. Pruned at compaction.
    checkpoint_votes: BTreeMap<u64, HashMap<Digest, HashSet<NodeId>>>,
    pub(crate) needs_state: bool,
    /// The lowest view this replica may lead. Raised past the current view
    /// when the replica is recovered: a freshly recovered replica must not
    /// resume proposing under its old leadership (its adopted state may lag
    /// the true frontier and it would re-assign executed sequence numbers);
    /// it may only lead a view acquired through a view-change quorum, whose
    /// high-water marks bound the frontier.
    min_lead_view: u64,
    /// The configuration epoch (bumped by every JOIN/EVICT).
    pub(crate) epoch: u64,
    /// The highest view this replica has broadcast a view-change vote for.
    /// After voting, the replica abandons its current view — it neither
    /// proposes nor accepts PREPAREs/COMMITs until a view ≥ `voted_view` is
    /// installed. Without this, a commit quorum for one request and a
    /// view-change quorum electing a leader that re-assigns the same
    /// sequence number can both complete (split-brain across views).
    voted_view: u64,
    /// Test-only fault injection: when set, the replica executes a corrupted
    /// digest for every request (simulating an implementation bug that makes
    /// the replica diverge while still claiming to follow the protocol).
    corrupt_execution: bool,
    /// The protocol-aware attacker strategy this replica runs with (`None`
    /// for honest replicas). Attacks that live inside the shared step path
    /// (equivocation, lying donations) branch on this; network-level
    /// attacks (withholding, delaying, suppression) are applied by the
    /// hosting cluster's egress filter.
    pub(crate) attacker: Option<AttackerKind>,
    /// Per-sender FIFO cursor: the highest USIG counter seen from each peer
    /// under a *valid* certificate. PREPAREs are only accepted
    /// counter-consecutively against this cursor — the defense that stops
    /// an equivocating leader from serving disjoint halves of the cluster
    /// conflicting proposals on disjoint counter ranges (gap-tolerant
    /// acceptance alone admits two disjoint commit quorums that share only
    /// the leader).
    ui_high: HashMap<NodeId, u64>,
    /// PREPAREs from the current leader that arrived above the FIFO cursor,
    /// keyed by counter: `(view, sequence, requests, ui)`. Drained in
    /// counter order as the cursor advances; cleared on view install
    /// (a new view means a new leader stream). Bounded.
    parked_prepares: BTreeMap<u64, (u64, u64, Vec<Request>, UniqueIdentifier)>,
    /// This replica's own UI-certified messages by counter, retained (and
    /// bounded) so peers can close FIFO gaps through
    /// [`Message::UiResendRequest`] instead of stalling behind lost
    /// messages.
    ui_log: BTreeMap<u64, Message>,
    /// The digest-chain value at `log_start`: folding the retained
    /// `executed` suffix over it reproduces `log_chain`. Maintained through
    /// compaction so state transfers carry a verifiable chain.
    chain_base: Digest,
}

/// Bounds for the FIFO-gap machinery: parked out-of-order PREPAREs per
/// replica, retained own UI messages, and messages per resend answer.
const PARKED_PREPARE_LIMIT: usize = 64;
const UI_LOG_LIMIT: usize = 512;
const UI_RESEND_LIMIT: usize = 32;

impl Replica {
    pub(crate) fn new(
        id: NodeId,
        membership: Vec<NodeId>,
        directory: KeyDirectory,
        seed: u64,
    ) -> Self {
        let keys = KeyPair::derive(id, seed);
        Replica {
            id,
            usig: Usig::new(keys),
            verifier: UsigVerifier::new(directory.clone()),
            directory,
            seed,
            evicted: false,
            byzantine: ByzantineMode::Correct,
            crashed: false,
            view: 0,
            membership,
            value: 0,
            kv: BTreeMap::new(),
            staged: BTreeMap::new(),
            executed: Vec::new(),
            log_start: 0,
            log_chain: digest(b"minbft-genesis"),
            last_executed: 0,
            next_sequence: 1,
            stable_sequence: 0,
            prepared: BTreeMap::new(),
            commit_votes: HashMap::new(),
            pending: VecDeque::new(),
            seen_requests: HashSet::new(),
            proposed: HashMap::new(),
            last_replies: HashMap::new(),
            request_first_seen: HashMap::new(),
            view_change_votes: HashMap::new(),
            own_checkpoints: BTreeMap::new(),
            checkpoint_votes: BTreeMap::new(),
            needs_state: false,
            recovery_floor: 0,
            pending_rebuild: false,
            min_lead_view: 0,
            epoch: 0,
            voted_view: 0,
            corrupt_execution: false,
            attacker: None,
            ui_high: HashMap::new(),
            parked_prepares: BTreeMap::new(),
            ui_log: BTreeMap::new(),
            chain_base: digest(b"minbft-genesis"),
        }
    }

    /// Forgets own proposals that never executed (called when a new view is
    /// installed, see the `proposed` field).
    fn forget_unexecuted_proposals(&mut self) {
        let last_executed = self.last_executed;
        let seen = &mut self.seen_requests;
        self.proposed.retain(|key, &mut sequence| {
            if sequence > last_executed {
                seen.remove(key);
                false
            } else {
                true
            }
        });
    }

    /// The replica-side half of a controller-triggered recovery: rebuild
    /// the protocol state in place (fresh USIG, wiped log and certificates)
    /// while keeping identity, membership, epoch and view, then await a
    /// state transfer. This is what [`MinBftCluster::recover_replica`] does
    /// centrally; the message-driven [`ControlMessage::Recover`] path lets
    /// a live threaded replica do it to itself.
    fn reset_for_recovery(&mut self) {
        let view = self.view;
        let epoch = self.epoch;
        let mut fresh = Replica::new(
            self.id,
            self.membership.clone(),
            self.directory.clone(),
            self.seed,
        );
        fresh.view = view;
        fresh.epoch = epoch;
        fresh.needs_state = true;
        // Only a transfer at or beyond the pre-recovery frontier may be
        // adopted (see the `recovery_floor` field).
        fresh.recovery_floor = self.last_executed;
        // The USIG is the tamperproof component: its monotonic counter
        // survives recovery (that is the trusted-component assumption the
        // whole protocol rests on), so peers keep accepting certificates
        // without any counter-reset coordination. The retained UI message
        // log rides along: the counter stream continues, so peers may still
        // ask for pre-recovery counters to close FIFO gaps.
        std::mem::swap(&mut fresh.usig, &mut self.usig);
        std::mem::swap(&mut fresh.ui_log, &mut self.ui_log);
        // A freshly recovered replica must not resume proposing under its
        // old leadership; it may only lead a view acquired through a
        // view-change quorum (see `min_lead_view`).
        fresh.min_lead_view = view + 1;
        *self = fresh;
    }

    /// Applies a [`ControlMessage::Reconfigure`]: adopt the new epoch and
    /// membership, refresh the key directory/verifier (keys are derived
    /// deterministically from the shared seed), drop the old epoch's
    /// view-change ballots, bar leadership of the current view, and either
    /// vote the reconfiguration view change (healthy replicas) or pull
    /// state (replicas still awaiting a transfer). Prepared entries and
    /// commit votes survive — they are genuine USIG-certified statements
    /// whose high-water marks stop a post-reconfiguration leader from
    /// re-assigning executed sequence numbers.
    fn apply_reconfiguration(&mut self, epoch: u64, membership: Vec<NodeId>, out: &mut StepOutput) {
        for &member in &membership {
            self.directory.register(&KeyPair::derive(member, self.seed));
        }
        self.verifier = UsigVerifier::new(self.directory.clone());
        self.membership = membership;
        self.epoch = epoch;
        self.view_change_votes.clear();
        // Leadership of the current view is barred below, so the current
        // leader stream ends here; parked entries can never drain.
        self.parked_prepares.clear();
        self.min_lead_view = self.min_lead_view.max(self.view + 1);
        if !self.membership.contains(&self.id) {
            self.evicted = true;
            return;
        }
        if self.crashed {
            return;
        }
        if self.needs_state || self.pending_rebuild {
            // A newcomer (or a replica mid-recovery/mid-rebuild) re-pulls
            // state in the new epoch; its old-epoch StateRequest is void
            // now.
            out.broadcast.push(Message::StateRequest { epoch });
        }
        if !self.needs_state && self.byzantine != ByzantineMode::Silent {
            self.voted_view = self.voted_view.max(self.view + 1);
            out.broadcast.push(Message::ViewChange {
                epoch,
                new_view: self.view + 1,
                high_sequence: replica_high_sequence(self),
                stable_sequence: self.stable_sequence,
                prepared: prepared_report(self),
            });
        }
    }

    fn may_lead(&self) -> bool {
        self.is_leader()
            && !self.needs_state
            && self.view >= self.min_lead_view
            && self.view >= self.voted_view
    }

    /// Whether the replica still participates in its current view (it has
    /// not voted to abandon it).
    fn in_current_view(&self) -> bool {
        self.voted_view <= self.view
    }

    fn leader(&self) -> NodeId {
        self.membership[(self.view as usize) % self.membership.len()]
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.id
    }

    /// Absolute number of executed requests (compacted prefix included).
    pub(crate) fn executed_len(&self) -> u64 {
        self.log_start + self.executed.len() as u64
    }

    fn state_digest(&self) -> Digest {
        let mut bytes = Vec::with_capacity(8 + self.kv.len() * 12 + self.staged.len() * 20);
        bytes.extend_from_slice(&self.value.to_le_bytes());
        for (key, value) in &self.kv {
            bytes.extend_from_slice(&key.to_le_bytes());
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        for (&(tx, key), value) in &self.staged {
            bytes.extend_from_slice(&tx.to_le_bytes());
            bytes.extend_from_slice(&key.to_le_bytes());
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        combine(self.log_chain, digest(&bytes))
    }

    /// Compacts the log at a stable checkpoint: truncates the executed
    /// prefix below `log_len` and prunes every sequence-indexed structure at
    /// or below `sequence`. Bounds the replica's memory (the satellite-1
    /// requirement) while state transfer keeps compacted history reachable.
    fn compact_to(&mut self, sequence: u64, log_len: u64) {
        if sequence <= self.stable_sequence || sequence > self.last_executed {
            return;
        }
        if log_len < self.log_start || log_len > self.executed_len() {
            return;
        }
        // The compacted prefix folds into the chain base, keeping the
        // invariant `fold(chain_base, executed) == log_chain` that state
        // transfers are verified against.
        for dropped in self.executed.drain(..(log_len - self.log_start) as usize) {
            self.chain_base = combine(self.chain_base, dropped);
        }
        self.log_start = log_len;
        self.stable_sequence = sequence;
        self.prepared.retain(|&s, _| s > sequence);
        self.commit_votes.retain(|&(s, _), _| s > sequence);
        self.own_checkpoints.retain(|&s, _| s > sequence);
        self.checkpoint_votes.retain(|&s, _| s > sequence);
        // Executed-duplicate detection moves from `seen_requests` to the
        // per-client reply cache (ids are monotonic per client).
        let replies = &self.last_replies;
        self.seen_requests.retain(|&(client, id)| {
            replies
                .get(&client)
                .is_none_or(|&(last_id, _, _)| id > last_id)
        });
    }

    /// Stabilizes the checkpoint at `sequence` if `f + 1` replicas
    /// (including this one) announced the same state digest for it.
    fn try_stabilize_checkpoint(&mut self, sequence: u64, f: usize) {
        let Some(&(log_len, own_digest)) = self.own_checkpoints.get(&sequence) else {
            return;
        };
        let others = self
            .checkpoint_votes
            .get(&sequence)
            .and_then(|per_digest| per_digest.get(&own_digest))
            .map(|voters| voters.len())
            .unwrap_or(0);
        if others + 1 > f {
            self.compact_to(sequence, log_len);
        }
    }
}

/// The high-water mark a replica reports in view changes: the highest
/// sequence number it has executed or prepared.
fn replica_high_sequence(replica: &Replica) -> u64 {
    let prepared_max = replica.prepared.keys().next_back().copied().unwrap_or(0);
    replica.last_executed.max(prepared_max)
}

/// The certificate transfer a replica attaches to a view-change vote: all
/// its retained prepared entries. Entries the voter has itself executed are
/// included too — a new leader that lags behind the voter needs exactly
/// those to re-propose the executed batches at their original sequence
/// numbers instead of no-op-filling them. (Entries below the stable
/// checkpoint are compacted; a leader that would need them is barred from
/// leading and re-acquires state by transfer instead.)
fn prepared_report(replica: &Replica) -> Vec<PreparedCertificate> {
    replica
        .prepared
        .iter()
        .map(|(&sequence, (view, batch))| (sequence, *view, batch.clone()))
        .collect()
}

/// The state-transfer message a donor builds from its current state (shared
/// by the cluster's push-based recovery transfer and the pull-based
/// [`Message::StateRequest`] path).
fn state_transfer_message(replica: &Replica) -> Message {
    let mut replies: Vec<(NodeId, u64, u64, u64)> = replica
        .last_replies
        .iter()
        .map(|(&client, &(id, value, sequence))| (client, id, value, sequence))
        .collect();
    replies.sort_unstable();
    Message::StateTransfer {
        epoch: replica.epoch,
        value: replica.value,
        kv: replica.kv.iter().map(|(&k, &v)| (k, v)).collect(),
        staged: replica
            .staged
            .iter()
            .map(|(&(tx, key), &value)| (tx, key, value))
            .collect(),
        log_start: replica.log_start,
        last_executed: replica.last_executed,
        log_chain: replica.log_chain,
        stable_sequence: replica.stable_sequence,
        executed: replica.executed.clone(),
        view: replica.view,
        membership: replica.membership.clone(),
        replies,
        prepared: prepared_report(replica),
        chain_base: replica.chain_base,
        ui_high: {
            let mut cursors: Vec<(NodeId, u64)> = replica
                .ui_high
                .iter()
                .map(|(&node, &counter)| (node, counter))
                .collect();
            cursors.sort_unstable();
            cursors
        },
    }
}

/// The [`AttackerKind::LyingDonor`] transform: inflate the execution
/// frontier and append fabricated digests *without* extending the chain, so
/// the receiver's `fold(chain_base, executed) == log_chain` check exposes
/// the forgery. A subtler donor could keep the chain consistent over a
/// fabricated history, but it cannot reproduce the honest chain value that
/// checkpoint quorums already certified — any adopted forgery diverges at
/// the next checkpoint comparison.
fn forge_state_transfer(transfer: &mut Message) {
    if let Message::StateTransfer {
        value,
        last_executed,
        executed,
        ..
    } = transfer
    {
        *value = value.wrapping_add(0xbad);
        *last_executed += 3;
        for filler in 0..3u64 {
            executed.push(digest(&filler.to_le_bytes()));
        }
    }
}

/// Leader-side proposal: assigns the next sequence number to the batch,
/// certifies it with one USIG signature and records the leader's own commit
/// vote.
///
/// Requests at or below the client's cached last-reply id are filtered out
/// alongside `seen_requests`: client request ids are monotonic, so such a
/// request already executed somewhere — and a leader that caught up by
/// *state transfer* only rebuilds `seen_requests` from the per-client
/// *last* reply, so an older executed request parked in its `pending`
/// backlog would otherwise be re-proposed at a fresh sequence number and
/// execute twice (found by the multi-shard routing oracle: loss storm +
/// JOIN, the lagging ex-straggler wins the post-reconfiguration view).
fn propose_batch(replica: &mut Replica, requests: Vec<Request>, out: &mut StepOutput) {
    let requests: Vec<Request> = requests
        .into_iter()
        .filter(|r| {
            !replica.seen_requests.contains(&(r.client, r.id))
                && replica
                    .last_replies
                    .get(&r.client)
                    .is_none_or(|&(last_id, _, _)| r.id > last_id)
        })
        .collect();
    if requests.is_empty() {
        return;
    }
    let sequence = replica.next_sequence;
    replica.next_sequence += 1;
    for request in &requests {
        let key = (request.client, request.id);
        replica.seen_requests.insert(key);
        replica.proposed.insert(key, sequence);
    }
    let digest = batch_digest(&requests);
    let ui = replica.usig.create_ui(digest);
    out.created_uis += 1;
    replica
        .prepared
        .insert(sequence, (replica.view, requests.clone()));
    // The leader's PREPARE counts as its COMMIT vote.
    replica
        .commit_votes
        .entry((sequence, digest))
        .or_default()
        .insert(replica.id);
    let prepare = Message::Prepare {
        view: replica.view,
        sequence,
        requests,
        ui,
    };
    record_ui_message(replica, ui.counter, prepare.clone());
    if replica.attacker == Some(AttackerKind::EquivocatingLeader) {
        equivocate(replica, sequence, prepare, out);
    } else {
        out.broadcast.push(prepare);
    }
}

/// The [`AttackerKind::EquivocatingLeader`] proposal path: alongside the
/// honest PREPARE, certify a *conflicting* batch for the same sequence
/// number with the next USIG counter, and send each half of the membership a
/// different one. The attack stays entirely within the trusted component's
/// limits — two distinct counters certify two distinct digests; only the
/// *binding of one sequence number to two batches* is the lie. Against
/// gap-tolerant acceptance this forms two disjoint commit quorums that share
/// only the attacker (each half credits the leader's PREPARE as a vote);
/// the per-sender FIFO cursor forces every replica to process the
/// lower-counter PREPARE first, after which first-wins rejects the conflict.
fn equivocate(replica: &mut Replica, sequence: u64, honest: Message, out: &mut StepOutput) {
    let Message::Prepare {
        view, ref requests, ..
    } = honest
    else {
        out.broadcast.push(honest);
        return;
    };
    // The conflicting batch reorders the same submitted requests (or, for a
    // singleton, proposes the empty batch): its digest differs, but every
    // request in it was genuinely submitted — if the attack splits the
    // cluster, it is the *agreement* oracle that fires, not validity.
    let conflicting: Vec<Request> = if requests.len() >= 2 {
        requests.iter().rev().cloned().collect()
    } else {
        Vec::new()
    };
    let conflict_digest = batch_digest(&conflicting);
    let conflict_ui = replica.usig.create_ui(conflict_digest);
    out.created_uis += 1;
    let conflict = Message::Prepare {
        view,
        sequence,
        requests: conflicting,
        ui: conflict_ui,
    };
    record_ui_message(replica, conflict_ui.counter, conflict.clone());
    let members = replica.membership.clone();
    for (index, member) in members.into_iter().enumerate() {
        if member == replica.id {
            continue;
        }
        let message = if index % 2 == 0 {
            honest.clone()
        } else {
            conflict.clone()
        };
        out.outgoing.push((member, message));
    }
}

/// Records one of the replica's own UI-certified messages for gap repair
/// (see [`Message::UiResendRequest`]), bounding the retained log.
fn record_ui_message(replica: &mut Replica, counter: u64, message: Message) {
    replica.ui_log.insert(counter, message);
    while replica.ui_log.len() > UI_LOG_LIMIT {
        replica.ui_log.pop_first();
    }
}

/// Proposes every full batch the leader has accumulated, stopping when the
/// pipeline window closes (the remainder stays parked in `pending` until
/// executions re-open the window).
fn flush_full_batches(replica: &mut Replica, params: &ProtocolParams, out: &mut StepOutput) {
    while replica.may_lead()
        && window_open(replica, params)
        && replica.pending.len() >= params.batch_size.max(1)
    {
        let batch: Vec<Request> = replica.pending.drain(..params.batch_size.max(1)).collect();
        propose_batch(replica, batch, out);
    }
}

/// Proposes a partial batch whose oldest request has waited at least
/// `batch_delay` (so light load never stalls behind the batch-fill
/// condition). Called from the timeout path of both drivers.
pub(crate) fn flush_stale_batch(
    replica: &mut Replica,
    now: SimTime,
    params: &ProtocolParams,
    out: &mut StepOutput,
) {
    if params.batch_size <= 1 || !replica.may_lead() || replica.pending.is_empty() {
        return;
    }
    let oldest = replica
        .pending
        .iter()
        .filter_map(|r| replica.request_first_seen.get(&(r.client, r.id)).copied())
        .fold(f64::INFINITY, f64::min);
    // The comparison must be the exact expression `batch_flush_deadline`
    // returns: testing `now - oldest < delay` instead can disagree by one
    // ulp after the event loop advances the clock to `oldest + delay`, and
    // the flush would never fire (a livelock).
    if oldest.is_finite() && now < oldest + params.batch_delay {
        return;
    }
    while !replica.pending.is_empty() && window_open(replica, params) {
        let take = replica.pending.len().min(params.batch_size.max(1));
        let batch: Vec<Request> = replica.pending.drain(..take).collect();
        propose_batch(replica, batch, out);
    }
}

/// The earliest simulated time at which this replica holds a partial batch
/// that [`flush_stale_batch`] would flush (`None` when nothing is pending).
fn batch_flush_deadline(
    replica: &Replica,
    params: &ProtocolParams,
    now: SimTime,
) -> Option<SimTime> {
    // A closed window must return `None`: the parked batch cannot flush
    // until executions advance the frontier, and handing the event loop a
    // deadline that never becomes actionable would spin the clock on the
    // same timer forever (deliveries, not timers, re-open the window).
    if params.batch_size <= 1
        || replica.crashed
        || replica.byzantine == ByzantineMode::Silent
        || !replica.may_lead()
        || replica.pending.is_empty()
        || !window_open(replica, params)
    {
        return None;
    }
    let oldest = replica
        .pending
        .iter()
        .filter_map(|r| replica.request_first_seen.get(&(r.client, r.id)).copied())
        .fold(f64::INFINITY, f64::min);
    Some(if oldest.is_finite() {
        oldest + params.batch_delay
    } else {
        now
    })
}

/// Votes for a view change if any request this replica has seen stalled for
/// longer than `timeout`. Returns the vote to broadcast (the caller counts
/// and sends it). Shared by the simulated cluster's timeout sweep and the
/// threaded replica loop.
pub(crate) fn stall_vote(replica: &mut Replica, now: SimTime, timeout: f64) -> Option<Message> {
    if replica.crashed || replica.byzantine == ByzantineMode::Silent || replica.needs_state {
        return None;
    }
    // Canonical deadline form `now >= first_seen + timeout`: the event
    // loop advances the clock to exactly this expression when the network
    // is idle, so the comparison must match it ulp-for-ulp.
    let stalled = replica
        .request_first_seen
        .values()
        .any(|&first_seen| now >= first_seen + timeout);
    if !stalled {
        return None;
    }
    // Vote for the highest view anyone has proposed (not just view + 1):
    // voting `own view + 1` fragments the ballots across views when
    // replicas disagree on the current view, and no proposal ever reaches
    // quorum.
    let highest_proposed = replica.view_change_votes.keys().copied().max().unwrap_or(0);
    let new_view = (replica.view + 1).max(highest_proposed);
    replica.voted_view = replica.voted_view.max(new_view);
    replica.request_first_seen.clear();
    Some(Message::ViewChange {
        epoch: replica.epoch,
        new_view,
        high_sequence: replica_high_sequence(replica),
        stable_sequence: replica.stable_sequence,
        prepared: prepared_report(replica),
    })
}

fn handle_request(
    replica: &mut Replica,
    request: Request,
    time: SimTime,
    params: &ProtocolParams,
    out: &mut StepOutput,
) {
    let key = (request.client, request.id);
    // Executed-duplicate detection via the per-client reply cache (survives
    // checkpoint compaction of `seen_requests`): a retransmission of the
    // last executed request gets its REPLY re-sent, older ones are dropped.
    if let Some(&(last_id, value, sequence)) = replica.last_replies.get(&request.client) {
        if request.id < last_id {
            return;
        }
        if request.id == last_id {
            out.outgoing.push((
                request.client,
                Message::Reply {
                    request_id: last_id,
                    value,
                    sequence,
                },
            ));
            return;
        }
    }
    if replica.seen_requests.contains(&key) {
        // Already sequenced; the REPLY follows once the batch commits.
        return;
    }
    replica.request_first_seen.entry(key).or_insert(time);
    if replica.may_lead() {
        if params.batch_size <= 1 && params.pipeline_window == 0 {
            // Legacy unbatched path: propose immediately, bypassing the
            // queue (kept bit-for-bit so existing seeds replay unchanged).
            propose_batch(replica, vec![request], out);
        } else {
            // Batched and/or pipelined: park in FIFO order and drain as far
            // as the batch-fill condition and the window allow.
            if !replica.pending.contains(&request) {
                replica.pending.push_back(request);
            }
            flush_full_batches(replica, params, out);
        }
    } else if !replica.pending.contains(&request) {
        replica.pending.push_back(request);
    }
}

fn handle_prepare(
    replica: &mut Replica,
    from: NodeId,
    view: u64,
    sequence: u64,
    requests: Vec<Request>,
    ui: UniqueIdentifier,
    out: &mut StepOutput,
) {
    // A replica awaiting its state transfer must not participate: its log
    // and sequence counter are meaningless, so a COMMIT vote from it could
    // help a quorum re-execute an old sequence number (recovery amnesia).
    if replica.needs_state {
        return;
    }
    // The certificate must be valid before anything else: an unauthentic
    // message must not move the per-sender FIFO cursor. One verification
    // covers the whole batch.
    let digest = batch_digest(&requests);
    if !replica.verifier.verify_certificate(digest, &ui) {
        return;
    }
    if view != replica.view || from != replica.leader() || !replica.in_current_view() {
        // Authentic but void in this view (stale view, or a view this
        // replica has not installed yet). The counter is consumed in the
        // sender's stream regardless — advance the cursor so the sender's
        // later in-view PREPAREs are not parked behind a gap that nothing
        // can ever fill.
        note_ui_counter(replica, from, ui.counter);
        drain_parked_prepares(replica, out);
        return;
    }
    let expected = replica.ui_high.get(&from).copied().unwrap_or(0) + 1;
    if ui.counter < expected {
        // Replay, or a resend of a counter the cursor already passed.
        return;
    }
    if ui.counter > expected {
        // A gap in the leader's UI stream: reordering or loss. Accepting
        // across the gap is exactly what an equivocating leader needs (two
        // disjoint quorums on two disjoint counter ranges), so park the
        // PREPARE and ask the sender to re-send the missing range. Only a
        // *new* parking triggers the request — re-deliveries of an
        // already-parked counter must not ping-pong resend traffic.
        if replica.parked_prepares.len() < PARKED_PREPARE_LIMIT
            && !replica.parked_prepares.contains_key(&ui.counter)
        {
            replica
                .parked_prepares
                .insert(ui.counter, (view, sequence, requests, ui));
            out.outgoing.push((
                from,
                Message::UiResendRequest {
                    from_counter: expected,
                },
            ));
        }
        return;
    }
    accept_prepare_in_order(replica, from, view, sequence, requests, digest, ui, out);
    drain_parked_prepares(replica, out);
}

/// Advances the per-sender FIFO cursor past a counter whose certificate
/// verified (PREPAREs accepted or void-in-view, COMMITs): the counter is
/// consumed in the sender's stream either way.
fn note_ui_counter(replica: &mut Replica, from: NodeId, counter: u64) {
    let cursor = replica.ui_high.entry(from).or_insert(0);
    *cursor = (*cursor).max(counter);
}

/// Processes parked PREPAREs that have become counter-consecutive after the
/// cursor advanced. Entries for other views (stale parkings that survived a
/// view install race) are discarded as their counters come due.
fn drain_parked_prepares(replica: &mut Replica, out: &mut StepOutput) {
    loop {
        if replica.needs_state || !replica.in_current_view() {
            return;
        }
        let leader = replica.leader();
        let next = replica.ui_high.get(&leader).copied().unwrap_or(0) + 1;
        let Some((view, sequence, requests, ui)) = replica.parked_prepares.remove(&next) else {
            return;
        };
        if view != replica.view || ui.replica != leader {
            // Void in the current view. If it is still this leader's
            // counter (the leader led an older view too), the counter is
            // consumed in its stream and the cursor moves past it;
            // an entry parked under a *different* old leader just drops.
            if ui.replica == leader {
                note_ui_counter(replica, leader, ui.counter);
            }
            continue;
        }
        let digest = batch_digest(&requests);
        accept_prepare_in_order(replica, leader, view, sequence, requests, digest, ui, out);
    }
}

/// The post-FIFO acceptance path of a PREPARE: replay protection, cursor
/// advance, the first-wins equivocation check, and the COMMIT answer.
#[allow(clippy::too_many_arguments)]
fn accept_prepare_in_order(
    replica: &mut Replica,
    from: NodeId,
    view: u64,
    sequence: u64,
    requests: Vec<Request>,
    digest: Digest,
    ui: UniqueIdentifier,
    out: &mut StepOutput,
) {
    // Replay protection (the certificate was already verified).
    if !replica.verifier.accept_unordered(digest, &ui) {
        return;
    }
    note_ui_counter(replica, from, ui.counter);
    // First-wins per (view, sequence): a second PREPARE binding the same
    // sequence to a *different* batch in the same view is equivocation.
    // The counter is consumed (the cursor advanced above) but the conflict
    // is not adopted and earns no COMMIT. Re-proposals from a *higher*
    // view (view-change refills) legitimately overwrite.
    if let Some((prev_view, prev_batch)) = replica.prepared.get(&sequence) {
        if *prev_view >= view && batch_digest(prev_batch) != digest {
            return;
        }
    }
    for request in &requests {
        replica
            .request_first_seen
            .remove(&(request.client, request.id));
    }
    replica.prepared.insert(sequence, (view, requests));
    let votes = replica.commit_votes.entry((sequence, digest)).or_default();
    votes.insert(from);
    votes.insert(replica.id);
    let own_ui = replica.usig.create_ui(digest);
    out.created_uis += 1;
    let commit = Message::Commit {
        view,
        sequence,
        batch_digest: digest,
        ui: own_ui,
    };
    record_ui_message(replica, own_ui.counter, commit.clone());
    out.broadcast.push(commit);
}

#[allow(clippy::too_many_arguments)]
fn handle_commit(
    replica: &mut Replica,
    from: NodeId,
    view: u64,
    sequence: u64,
    batch_digest: Digest,
    ui: UniqueIdentifier,
    params: &ProtocolParams,
    out: &mut StepOutput,
    trace: &mut Vec<CommitRecord>,
) {
    // Certificate first: an authentic COMMIT consumes its counter in the
    // sender's UI stream even when it is void in this view, and the FIFO
    // cursor must track that (a leader's PREPARE stream resumes *after*
    // the COMMITs it sent as a follower — without the cursor advance those
    // in-between counters would look like an unfillable gap).
    if !replica.verifier.verify_certificate(batch_digest, &ui) {
        return;
    }
    note_ui_counter(replica, from, ui.counter);
    drain_parked_prepares(replica, out);
    if view != replica.view || !replica.in_current_view() {
        return;
    }
    // The vote is recorded even if the PREPARE has not arrived yet (it only
    // becomes effective once the matching batch is prepared).
    replica
        .commit_votes
        .entry((sequence, batch_digest))
        .or_default()
        .insert(from);
    execute_ready(replica, params, out, trace);
}

/// Executes all consecutive sequence numbers whose commit quorum (see
/// [`ProtocolParams::commit_quorum`]) has been reached: every request of
/// the batch is applied and answered, checkpoints fire on period multiples.
fn execute_ready(
    replica: &mut Replica,
    params: &ProtocolParams,
    out: &mut StepOutput,
    trace: &mut Vec<CommitRecord>,
) {
    // No execution before the state transfer lands: an amnesiac replica
    // would re-execute from sequence 1.
    if replica.needs_state {
        return;
    }
    loop {
        let next = replica.last_executed + 1;
        let Some((_, batch)) = replica.prepared.get(&next).cloned() else {
            break;
        };
        let quorum_met = replica
            .commit_votes
            .get(&(next, batch_digest(&batch)))
            .map(|votes| votes.len() >= params.commit_quorum(replica.membership.len()))
            .unwrap_or(false);
        if !quorum_met {
            break;
        }
        // Execute every request of the batch, in batch order.
        let mut executed_digests: Vec<Digest> = Vec::with_capacity(batch.len());
        for request in &batch {
            let reply_value = match request.operation {
                Operation::Read => replica.value,
                Operation::Write(v) => {
                    replica.value = v;
                    v
                }
                Operation::Put { key, value } => {
                    replica.kv.insert(key, value);
                    value
                }
                Operation::Get { key } => replica.kv.get(&key).copied().unwrap_or(0),
                Operation::TxReserve { tx, key, value } => {
                    replica.staged.insert((tx, key), value);
                    value
                }
                Operation::TxCommit { tx, key } => match replica.staged.remove(&(tx, key)) {
                    Some(value) => {
                        replica.kv.insert(key, value);
                        value
                    }
                    // Nothing staged: already applied (re-driven commit) or
                    // never reserved — answer the current value, change
                    // nothing.
                    None => replica.kv.get(&key).copied().unwrap_or(0),
                },
                Operation::TxAbort { tx, key } => {
                    replica.staged.remove(&(tx, key));
                    replica.kv.get(&key).copied().unwrap_or(0)
                }
            };
            let executed_digest = if replica.corrupt_execution {
                // Injected implementation bug: the replica diverges from the
                // agreed operation (see `MinBftCluster::inject_double_commit`).
                combine(request.digest(), digest(b"corrupted-execution"))
            } else {
                request.digest()
            };
            replica.executed.push(executed_digest);
            replica.log_chain = combine(replica.log_chain, executed_digest);
            executed_digests.push(executed_digest);
            let key = (request.client, request.id);
            replica.seen_requests.insert(key);
            replica.proposed.remove(&key);
            replica.request_first_seen.remove(&key);
            replica
                .last_replies
                .insert(request.client, (request.id, reply_value, next));
            out.outgoing.push((
                request.client,
                Message::Reply {
                    request_id: request.id,
                    value: reply_value,
                    sequence: next,
                },
            ));
        }
        // Requests that executed through this batch are no longer pending
        // anywhere on this replica (non-leaders park requests in `pending`
        // for re-proposal after view changes; without this prune the queue
        // grows without bound).
        if !replica.pending.is_empty() {
            let seen = &replica.seen_requests;
            replica
                .pending
                .retain(|r| !seen.contains(&(r.client, r.id)));
        }
        let trace_digest = match executed_digests.as_slice() {
            [single] => *single,
            many => many
                .iter()
                .fold(batch_digest(&[]), |acc, &d| combine(acc, d)),
        };
        trace.push(CommitRecord {
            replica: replica.id,
            view: replica.view,
            sequence: next,
            digest: trace_digest,
        });
        replica.last_executed = next;
        if params.checkpoint_period > 0 && next.is_multiple_of(params.checkpoint_period) {
            let state_digest = replica.state_digest();
            let log_len = replica.executed_len();
            replica
                .own_checkpoints
                .insert(next, (log_len, state_digest));
            out.broadcast.push(Message::Checkpoint {
                sequence: next,
                log_len,
                state_digest,
            });
            // Votes may already have arrived from faster replicas.
            replica.try_stabilize_checkpoint(next, params.f);
        }
    }
}

/// Handles one protocol message at one replica: the transport-agnostic step
/// function shared by the simulated cluster and the threaded service. The
/// caller is responsible for gating crashed/silent replicas and for routing
/// `out` through its transport.
pub(crate) fn replica_on_message(
    replica: &mut Replica,
    from: NodeId,
    message: Message,
    time: SimTime,
    params: &ProtocolParams,
    trace: &mut Vec<CommitRecord>,
    out: &mut StepOutput,
) {
    match message {
        Message::Request(request) => {
            handle_request(replica, request, time, params, out);
        }
        Message::Prepare {
            view,
            sequence,
            requests,
            ui,
        } => {
            handle_prepare(replica, from, view, sequence, requests, ui, out);
            // Commit votes may already have arrived for this sequence.
            execute_ready(replica, params, out, trace);
        }
        Message::Commit {
            view,
            sequence,
            batch_digest,
            ui,
        } => {
            handle_commit(
                replica,
                from,
                view,
                sequence,
                batch_digest,
                ui,
                params,
                out,
                trace,
            );
        }
        Message::Checkpoint {
            sequence,
            log_len: _,
            state_digest,
        } => {
            // Only the *own* log length matters for truncation; a vote's
            // digest either matches this replica's state at the sequence or
            // it does not count.
            if sequence > replica.stable_sequence {
                replica
                    .checkpoint_votes
                    .entry(sequence)
                    .or_default()
                    .entry(state_digest)
                    .or_default()
                    .insert(from);
                replica.try_stabilize_checkpoint(sequence, params.f);
            }
        }
        Message::ViewChange {
            epoch,
            new_view,
            high_sequence,
            stable_sequence,
            prepared,
        } => {
            if epoch == replica.epoch && new_view > replica.view {
                let own_high = replica_high_sequence(replica);
                let own_stable = replica.stable_sequence;
                // A replica awaiting its state transfer must not join the
                // quorum: its high-water mark is meaningless, and counting
                // it would break the intersection with the commit quorums.
                // Its certificate report — a deep clone of every retained
                // batch — is only built when the vote is actually cast.
                let own_prepared = (!replica.needs_state).then(|| prepared_report(replica));
                let votes = replica.view_change_votes.entry(new_view).or_default();
                votes.insert(from, (high_sequence, stable_sequence, prepared));
                if let Some(own_prepared) = own_prepared {
                    votes.insert(replica.id, (own_high, own_stable, own_prepared));
                }
                // The ballot must intersect every commit quorum in a voter
                // that still *remembers* the committed certificate: a
                // proactive recovery re-images a replica from a donor's
                // snapshot, and if the donor lagged, the recovered
                // committer no longer holds the certificate it once voted
                // for. Without the recovery slack baked into the quorum
                // pair (see `ProtocolParams::commit_quorum`), a ballot of
                // laggards plus a freshly re-imaged committer can no-op
                // fill a committed sequence and re-assign its batch — a
                // double execution. (Computed over the replica's own
                // membership view, which may briefly differ from the
                // cluster's during a reconfiguration.)
                let n = replica.membership.len();
                let quorum = params.view_change_quorum(n);
                if votes.len() >= quorum {
                    let max_high = votes.values().map(|&(high, _, _)| high).max().unwrap_or(0);
                    let quorum_stable = votes
                        .values()
                        .map(|&(_, stable, _)| stable)
                        .max()
                        .unwrap_or(0);
                    // Freshest reported certificate per sequence (highest
                    // view wins; within one view a leader assigns each
                    // sequence at most once, so ties agree).
                    let mut certificates: BTreeMap<u64, (u64, Vec<Request>)> = BTreeMap::new();
                    for (_, _, reported) in votes.values() {
                        for (sequence, view, batch) in reported {
                            match certificates.get(sequence) {
                                Some(&(v, _)) if v >= *view => {}
                                _ => {
                                    certificates.insert(*sequence, (*view, batch.clone()));
                                }
                            }
                        }
                    }
                    replica.view = new_view;
                    replica.forget_unexecuted_proposals();
                    // A new view means a new leader UI stream; parked
                    // PREPAREs of the old stream can never drain.
                    replica.parked_prepares.clear();
                    // Ballots for installed views are dead weight.
                    replica.view_change_votes.retain(|&v, _| v > new_view);
                    // Echo the ballot: stragglers (including the view's
                    // leader, which may still be in an older view) only
                    // learn about the quorum through votes, and without the
                    // echo two camps can rotate views forever with every new
                    // leader one view behind.
                    out.broadcast.push(Message::ViewChange {
                        epoch: replica.epoch,
                        new_view,
                        high_sequence: own_high,
                        stable_sequence: own_stable,
                        prepared: prepared_report(replica),
                    });
                    // Compacted history is only reachable through state
                    // transfer: a replica whose execution frontier lies
                    // below the quorum's stable checkpoint cannot replay the
                    // missing batches from certificates (their holders
                    // pruned them), so it re-acquires state by pull instead
                    // of executing a gap-filled (and diverging) log.
                    if replica.last_executed < quorum_stable {
                        replica.needs_state = true;
                        out.broadcast.push(Message::StateRequest {
                            epoch: replica.epoch,
                        });
                    }
                    // Prepared entries and commit votes survive the view
                    // change (they are keyed by sequence and digest, and
                    // USIG certificates cannot be forged): clearing them
                    // would lose in-flight quorums and stall the replicas
                    // that missed the executions.
                    if replica.may_lead() {
                        let next_sequence = max_high.max(own_high) + 1;
                        replica.next_sequence = next_sequence;
                        out.broadcast.push(Message::NewView {
                            epoch: replica.epoch,
                            view: new_view,
                            membership: replica.membership.clone(),
                            next_sequence,
                        });
                        // Fill the range up to the quorum's high-water mark
                        // from the freshest reported certificates (own
                        // prepared entries are part of the ballot); a
                        // sequence no voter holds a certificate for cannot
                        // have executed anywhere and becomes an *empty
                        // batch* — otherwise consecutive execution would
                        // stall at the gap forever.
                        // A request may appear in several reported
                        // certificates: a leader that proposed it in an old
                        // view keeps its (never-committed) certificate even
                        // after a later view re-proposed and committed the
                        // same request at a different sequence. Replaying
                        // both placements would execute the request twice,
                        // so each request is assigned to exactly one
                        // refilled sequence — the freshest certificate
                        // (highest view, then lowest sequence) wins, which
                        // is always the committed placement when one exists.
                        let refill_floor = replica.last_executed + 1;
                        let mut priority: Vec<(u64, u64)> = certificates
                            .range(refill_floor..next_sequence)
                            .map(|(&sequence, &(view, _))| (sequence, view))
                            .collect();
                        priority.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        let mut assigned: HashMap<(NodeId, u64), u64> = HashMap::new();
                        for (sequence, _) in priority {
                            if let Some((_, batch)) = certificates.get(&sequence) {
                                for request in batch {
                                    assigned
                                        .entry((request.client, request.id))
                                        .or_insert(sequence);
                                }
                            }
                        }
                        for sequence in refill_floor..next_sequence {
                            let batch: Vec<Request> = certificates
                                .get(&sequence)
                                .map(|(_, batch)| batch.clone())
                                .unwrap_or_default()
                                .into_iter()
                                .filter(|r| {
                                    let key = (r.client, r.id);
                                    assigned.get(&key) == Some(&sequence)
                                        && !replica.seen_requests.contains(&key)
                                })
                                .collect();
                            replica.prepared.insert(sequence, (new_view, batch.clone()));
                            // Mark the requests as sequenced so the backlog
                            // below does not re-propose them at a second
                            // sequence number.
                            for request in &batch {
                                let key = (request.client, request.id);
                                replica.seen_requests.insert(key);
                                replica.proposed.insert(key, sequence);
                            }
                            let digest = batch_digest(&batch);
                            let ui = replica.usig.create_ui(digest);
                            out.created_uis += 1;
                            replica
                                .commit_votes
                                .entry((sequence, digest))
                                .or_default()
                                .insert(replica.id);
                            let refill = Message::Prepare {
                                view: new_view,
                                sequence,
                                requests: batch,
                                ui,
                            };
                            record_ui_message(replica, ui.counter, refill.clone());
                            out.broadcast.push(refill);
                        }
                        // Re-propose requests the old leader never
                        // sequenced, in batch-sized chunks. (The
                        // certificate refill above is deliberately *not*
                        // window-gated: it re-issues sequences that may
                        // already hold commit votes elsewhere, and stalling
                        // it would wedge the view change. Fresh backlog
                        // proposals respect the window; the remainder stays
                        // parked until executions re-open it.)
                        let backlog: Vec<Request> = {
                            let seen = &replica.seen_requests;
                            let drained: Vec<Request> = replica.pending.drain(..).collect();
                            drained
                                .into_iter()
                                .filter(|r| !seen.contains(&(r.client, r.id)))
                                .collect()
                        };
                        let mut backlog = backlog.into_iter();
                        while window_open(replica, params) {
                            let chunk: Vec<Request> =
                                backlog.by_ref().take(params.batch_size.max(1)).collect();
                            if chunk.is_empty() {
                                break;
                            }
                            propose_batch(replica, chunk, out);
                        }
                        replica.pending.extend(backlog);
                    }
                }
            }
        }
        Message::NewView {
            epoch,
            view,
            membership,
            next_sequence,
        } => {
            if epoch == replica.epoch && view >= replica.view {
                if view > replica.view {
                    replica.parked_prepares.clear();
                }
                replica.view = view;
                replica.membership = membership;
                replica.next_sequence = next_sequence.max(replica.next_sequence);
                replica.request_first_seen.clear();
                replica.forget_unexecuted_proposals();
            }
        }
        Message::StateRequest { epoch } => {
            // Pull-based transfer for lagging replicas; amnesia must not
            // spread, so only replicas that hold state donate.
            if epoch == replica.epoch && !replica.needs_state {
                let mut transfer = state_transfer_message(replica);
                if replica.attacker == Some(AttackerKind::LyingDonor) {
                    forge_state_transfer(&mut transfer);
                }
                out.outgoing.push((from, transfer));
            }
        }
        Message::UiResendRequest { from_counter } => {
            // Gap repair: re-send this replica's own UI-certified messages
            // from the requested counter on (bounded). Counters below the
            // retained log's floor are unrecoverable here — the requester
            // falls back to a view change or state transfer.
            if !replica.needs_state {
                let resend: Vec<Message> = replica
                    .ui_log
                    .range(from_counter..)
                    .take(UI_RESEND_LIMIT)
                    .map(|(_, message)| message.clone())
                    .collect();
                for message in resend {
                    out.outgoing.push((from, message));
                }
            }
        }
        Message::StateTransfer {
            epoch,
            value,
            kv,
            staged,
            log_start,
            last_executed,
            log_chain,
            stable_sequence,
            executed,
            view,
            membership,
            replies,
            prepared,
            chain_base,
            ui_high,
        } => {
            // The frontier must be internally consistent before anything
            // is adopted: folding the retained suffix over the chain base
            // must reproduce the advertised chain, the suffix length must
            // match the advertised frontier, and the stable checkpoint
            // cannot exceed it. A lying donor that inflates its frontier
            // or fabricates digests fails here and donates nothing.
            let folded = executed
                .iter()
                .fold(chain_base, |chain, &entry| combine(chain, entry));
            if folded != log_chain || stable_sequence > last_executed {
                return;
            }
            // Phase two of a message-driven rebuild: the first transfer
            // covering the replica's own frontier triggers the wipe, and
            // the very same transfer is adopted below — there is no window
            // in which the state is gone without a replacement.
            if epoch == replica.epoch
                && replica.pending_rebuild
                && !replica.needs_state
                && last_executed >= replica.last_executed
            {
                replica.reset_for_recovery();
            }
            if epoch == replica.epoch
                && replica.needs_state
                && last_executed >= replica.last_executed
                && last_executed >= replica.recovery_floor
            {
                replica.recovery_floor = 0;
                replica.pending_rebuild = false;
                for (sequence, cert_view, batch) in prepared {
                    match replica.prepared.get(&sequence) {
                        Some(&(v, _)) if v >= cert_view => {}
                        _ => {
                            replica.prepared.insert(sequence, (cert_view, batch));
                        }
                    }
                }
                replica.value = value;
                replica.kv = kv.into_iter().collect();
                replica.staged = staged
                    .into_iter()
                    .map(|(tx, key, staged_value)| ((tx, key), staged_value))
                    .collect();
                replica.executed = executed;
                replica.log_start = log_start;
                replica.log_chain = log_chain;
                replica.chain_base = chain_base;
                replica.last_executed = last_executed;
                replica.stable_sequence = stable_sequence;
                // Adopt the donor's FIFO cursors (keeping own where it is
                // ahead): a recovered verifier has no counter history, and
                // without a baseline every post-recovery PREPARE would
                // park behind an unfillable gap.
                for (node, counter) in ui_high {
                    note_ui_counter(replica, node, counter);
                }
                replica.parked_prepares.clear();
                replica.view = view.max(replica.view);
                // Adopting the donor's (possibly much higher) view must not
                // re-open leadership: a recovered replica may only lead a
                // view acquired through a view-change quorum, whose ballots
                // bound its sequence counter.
                replica.min_lead_view = replica.min_lead_view.max(replica.view + 1);
                replica.membership = membership;
                replica.next_sequence = replica.last_executed + 1;
                // Anything below the adopted stable checkpoint is compacted
                // history on the donor too.
                replica.prepared.retain(|&s, _| s > stable_sequence);
                replica
                    .commit_votes
                    .retain(|&(s, _), _| s > stable_sequence);
                replica.own_checkpoints.clear();
                replica.checkpoint_votes.retain(|&s, _| s > stable_sequence);
                for (client, request_id, reply_value, sequence) in replies {
                    replica
                        .last_replies
                        .insert(client, (request_id, reply_value, sequence));
                    replica.seen_requests.insert((client, request_id));
                }
                // Requests parked while this replica lagged may have
                // executed inside the adopted history; the transfer's
                // reply cache only names each client's *last* request, so
                // prune the backlog by the monotonic-id rule too — a stale
                // entry that survives here would be re-proposed (and
                // re-executed) the next time this replica leads.
                {
                    let seen = &replica.seen_requests;
                    let last = &replica.last_replies;
                    replica.pending.retain(|r| {
                        !seen.contains(&(r.client, r.id))
                            && last
                                .get(&r.client)
                                .is_none_or(|&(last_id, _, _)| r.id > last_id)
                    });
                }
                replica.needs_state = false;
            }
        }
        Message::Control(control) => match control {
            ControlMessage::Recover => {
                // Phase one of the rebuild: the privileged domain seizes
                // the replica (the injected misbehaviour ends here — a
                // Silent replica must resume receiving, or the transfer
                // that completes the rebuild would itself be dropped) and
                // requests state while keeping the current state and
                // certificates alive. The wipe happens atomically with
                // adoption in the StateTransfer handler.
                replica.byzantine = ByzantineMode::Correct;
                replica.pending_rebuild = true;
                out.broadcast.push(Message::StateRequest {
                    epoch: replica.epoch,
                });
            }
            ControlMessage::Reconfigure { epoch, membership } => {
                if epoch > replica.epoch {
                    replica.apply_reconfiguration(epoch, membership, out);
                }
            }
            ControlMessage::Compromise { mode } => {
                replica.byzantine = mode;
            }
        },
        Message::Reply { .. } => {}
    }
    // Deliveries are what re-open a closed pipeline window (commits advance
    // `last_executed` through `execute_ready`), so a pipelined leader drains
    // its parked backlog here instead of waiting for a timer. No-op when the
    // window is still closed, the backlog is short of a full batch (the
    // stale-batch timer covers partials), or this replica does not lead;
    // skipped entirely at `pipeline_window == 0` so legacy traces replay
    // byte-identically.
    if params.pipeline_window > 0 {
        flush_full_batches(replica, params, out);
    }
}

#[derive(Debug)]
struct ClientState {
    id: NodeId,
    next_request_id: u64,
    /// Outstanding request and the replies received for it, keyed by the
    /// reply value; a request completes when f+1 replicas agree on a value.
    outstanding: Option<(Request, HashMap<u64, HashSet<NodeId>>, SimTime)>,
    completed: u64,
    latencies: Vec<f64>,
    closed_loop: bool,
    /// The client's operation generator (closed-loop resubmission draws
    /// from it; `None` falls back to the legacy register-write stream).
    op_stream: Option<OpStream>,
    /// Retransmission token bucket (`None` = unbudgeted legacy behaviour:
    /// every timeout retransmits).
    retry_budget: Option<RetryBudget>,
}

/// A report of a throughput run (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThroughputReport {
    /// Number of replicas during the run.
    pub replicas: usize,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Completed requests.
    pub completed_requests: u64,
    /// Simulated duration of the run in seconds.
    pub duration: f64,
    /// Completed requests per simulated second.
    pub requests_per_second: f64,
    /// Mean request latency in seconds.
    pub mean_latency: f64,
}

/// Bounded-memory accounting of one replica's retained protocol state (the
/// structures checkpoint compaction prunes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RetainedStats {
    /// Absolute index of the first retained executed-log entry.
    pub log_start: u64,
    /// Retained executed-log entries (suffix since the stable checkpoint).
    pub retained_log: usize,
    /// Retained prepared certificates.
    pub prepared: usize,
    /// Retained commit-vote entries.
    pub commit_votes: usize,
    /// Retained checkpoint ballots (own + others).
    pub checkpoint_votes: usize,
    /// Parked requests awaiting proposal or re-proposal.
    pub pending: usize,
    /// Retained request-dedup markers.
    pub seen_requests: usize,
}

/// A vote an attacker holds back until the view-change timeout boundary
/// (see [`AttackerKind::DelayedVotes`]).
#[derive(Debug)]
struct HeldMessage {
    release_at: SimTime,
    from: NodeId,
    to: NodeId,
    message: Message,
}

/// What the attacker egress filter decides for one outgoing message.
enum EgressAction {
    Deliver,
    Withhold,
    Hold,
}

/// A simulated MinBFT cluster: replicas, clients, the network and the event
/// loop that drives them.
pub struct MinBftCluster {
    config: MinBftConfig,
    rng: StdRng,
    network: SimNetwork<Message>,
    replicas: HashMap<NodeId, Replica>,
    clients: HashMap<NodeId, ClientState>,
    busy_until: HashMap<NodeId, SimTime>,
    membership: Vec<NodeId>,
    directory: KeyDirectory,
    next_node_id: NodeId,
    view_changes: u64,
    /// The configuration epoch (bumped by every JOIN/EVICT).
    epoch: u64,
    commit_trace: Vec<CommitRecord>,
    /// Votes held by [`AttackerKind::DelayedVotes`] attackers, released at
    /// the view-change timeout boundary (in insertion order, for
    /// deterministic replay).
    held_messages: Vec<HeldMessage>,
    /// Retry-budget configuration applied to clients (`None` = unbudgeted).
    retry_budget: Option<RetryBudgetConfig>,
    /// REQUEST messages received by replicas (original sends plus
    /// retransmissions) — the replica-side load signal the retry-storm
    /// regression pins.
    request_receptions: u64,
    /// Client retransmissions actually broadcast.
    retransmissions_sent: u64,
    /// Client retransmissions suppressed by the retry budget.
    retransmissions_suppressed: u64,
}

/// Client node identifiers start here to keep them disjoint from replicas.
/// Public because out-of-process clients (the `minbft-node` orchestrator)
/// must register the same identities the in-process drivers use.
pub const CLIENT_ID_BASE: NodeId = 10_000;

impl MinBftCluster {
    /// Creates a cluster with `config.initial_replicas` replicas and no
    /// clients.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 replicas are requested.
    pub fn new(config: MinBftConfig) -> Self {
        assert!(
            config.initial_replicas >= 2,
            "MinBFT needs at least two replicas"
        );
        let membership: Vec<NodeId> = (0..config.initial_replicas as NodeId).collect();
        let mut directory = KeyDirectory::new();
        for &id in &membership {
            directory.register(&KeyPair::derive(id, config.seed));
        }
        let replicas = membership
            .iter()
            .map(|&id| {
                (
                    id,
                    Replica::new(id, membership.clone(), directory.clone(), config.seed),
                )
            })
            .collect();
        let network = SimNetwork::new(config.network, config.seed);
        let rng = StdRng::seed_from_u64(config.seed);
        let next_node_id = config.initial_replicas as NodeId;
        MinBftCluster {
            config,
            rng,
            network,
            replicas,
            clients: HashMap::new(),
            busy_until: HashMap::new(),
            membership,
            directory,
            next_node_id,
            view_changes: 0,
            epoch: 0,
            commit_trace: Vec::new(),
            held_messages: Vec::new(),
            retry_budget: None,
            request_receptions: 0,
            retransmissions_sent: 0,
            retransmissions_suppressed: 0,
        }
    }

    /// The protocol knobs handed to the shared replica step functions.
    fn protocol_params(&self) -> ProtocolParams {
        ProtocolParams {
            f: hybrid_fault_threshold(self.membership.len(), 0),
            checkpoint_period: self.config.checkpoint_period,
            batch_size: self.config.batch_size.max(1),
            batch_delay: self.config.batch_delay,
            pipeline_window: self.config.pipeline_window,
            recoveries: self.config.parallel_recoveries,
        }
    }

    /// Current membership (active replicas).
    pub fn membership(&self) -> &[NodeId] {
        &self.membership
    }

    /// Current number of replicas.
    pub fn num_replicas(&self) -> usize {
        self.membership.len()
    }

    /// The tolerance threshold `f` of the current membership.
    pub fn fault_threshold(&self) -> usize {
        hybrid_fault_threshold(self.membership.len(), self.config.parallel_recoveries)
    }

    /// Simulated time.
    pub fn now(&self) -> SimTime {
        self.network.now()
    }

    /// Number of view changes that have completed.
    pub fn view_changes(&self) -> u64 {
        self.view_changes
    }

    /// Every commit executed by any replica so far, in execution order (the
    /// trace hook consumed by invariant oracles).
    pub fn commit_trace(&self) -> &[CommitRecord] {
        &self.commit_trace
    }

    /// The *retained* executed-request digest log of a replica (the suffix
    /// since its stable checkpoint; see [`MinBftCluster::executed_log_start`]
    /// for its absolute offset).
    pub fn executed_log(&self, replica: NodeId) -> Option<&[Digest]> {
        self.replicas.get(&replica).map(|r| r.executed.as_slice())
    }

    /// Absolute index of the first retained executed-log entry of a replica
    /// (requests below it were compacted at the stable checkpoint).
    pub fn executed_log_start(&self, replica: NodeId) -> Option<u64> {
        self.replicas.get(&replica).map(|r| r.log_start)
    }

    /// Absolute number of requests a replica has executed (compacted prefix
    /// included).
    pub fn executed_len(&self, replica: NodeId) -> Option<u64> {
        self.replicas.get(&replica).map(|r| r.executed_len())
    }

    /// The stable-checkpoint sequence of a replica (0 before the first
    /// compaction).
    pub fn stable_checkpoint(&self, replica: NodeId) -> Option<u64> {
        self.replicas.get(&replica).map(|r| r.stable_sequence)
    }

    /// Sizes of the retained (compaction-bounded) protocol structures of a
    /// replica.
    pub fn retained_stats(&self, replica: NodeId) -> Option<RetainedStats> {
        self.replicas.get(&replica).map(|r| RetainedStats {
            log_start: r.log_start,
            retained_log: r.executed.len(),
            prepared: r.prepared.len(),
            commit_votes: r.commit_votes.len(),
            checkpoint_votes: r.own_checkpoints.len() + r.checkpoint_votes.len(),
            pending: r.pending.len(),
            seen_requests: r.seen_requests.len(),
        })
    }

    /// The Byzantine mode a replica currently runs with.
    pub fn byzantine_mode(&self, replica: NodeId) -> Option<ByzantineMode> {
        self.replicas.get(&replica).map(|r| r.byzantine)
    }

    /// Whether a replica is crashed.
    pub fn is_crashed(&self, replica: NodeId) -> bool {
        self.replicas
            .get(&replica)
            .map(|r| r.crashed)
            .unwrap_or(false)
    }

    /// The view a replica is currently in.
    pub fn replica_view(&self, replica: NodeId) -> Option<u64> {
        self.replicas.get(&replica).map(|r| r.view)
    }

    /// The node a replica currently considers the leader.
    pub fn leader_of(&self, replica: NodeId) -> Option<NodeId> {
        self.replicas
            .get(&replica)
            .filter(|r| !r.membership.is_empty())
            .map(|r| r.leader())
    }

    /// A one-line diagnostic summary of a replica's protocol state (for
    /// harness debugging output).
    pub fn debug_replica(&self, replica: NodeId) -> String {
        let Some(r) = self.replicas.get(&replica) else {
            return format!("replica {replica}: gone");
        };
        format!(
            "replica {replica}: view {} voted {} min_lead {} epoch {} last_exec {} next_seq {} \
             stable {} log_start {} pending {} first_seen {} prepared {} vc_votes {:?}",
            r.view,
            r.voted_view,
            r.min_lead_view,
            r.epoch,
            r.last_executed,
            r.next_sequence,
            r.stable_sequence,
            r.log_start,
            r.pending.len(),
            r.request_first_seen.len(),
            r.prepared.len(),
            r.view_change_votes
                .iter()
                .map(|(view, votes)| (*view, votes.len()))
                .collect::<std::collections::BTreeMap<_, _>>(),
        )
    }

    /// Whether a replica is still waiting for a state transfer after a
    /// recovery or join.
    pub fn needs_state(&self, replica: NodeId) -> bool {
        self.replicas
            .get(&replica)
            .map(|r| r.needs_state)
            .unwrap_or(false)
    }

    /// Traffic counters of the underlying network.
    pub fn network_stats(&self) -> crate::net::NetworkStats {
        self.network.stats()
    }

    /// Number of messages currently in flight on the network.
    pub fn network_in_flight(&self) -> usize {
        self.network.in_flight()
    }

    /// Blocks communication between every replica in `group_a` and every
    /// replica in `group_b` (both directions), modelling a network
    /// partition.
    pub fn partition_network(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        self.network.partition(group_a, group_b);
    }

    /// Removes all network partitions.
    pub fn heal_network(&mut self) {
        self.network.heal_partitions();
    }

    /// Replaces the replica-to-replica link profile mid-run (delay and loss
    /// storms). Messages already in flight keep their scheduled delivery.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`NetworkConfig::new`]).
    pub fn set_network_config(&mut self, network: NetworkConfig) {
        self.network.set_config(network);
    }

    /// The link profile currently in force.
    pub fn network_config(&self) -> NetworkConfig {
        self.network.config()
    }

    /// Actuates a new leader-batching configuration online (the autotune
    /// hook). The pair is re-clamped through the fragmentation floor
    /// (`batch_delay ≥ batch_size × per-request cost`, see
    /// [`MinBftConfig::min_batch_delay`]) so the live configuration always
    /// satisfies [`MinBftConfig::validate`]. Takes effect on the next
    /// protocol step — `protocol_params()` reads the live config — and
    /// returns the `(batch_size, batch_delay)` actually applied.
    pub fn set_batch_config(&mut self, batch_size: usize, batch_delay: f64) -> (usize, f64) {
        let candidate = MinBftConfig {
            batch_size: batch_size.max(1),
            batch_delay: batch_delay.max(0.0),
            ..self.config.clone()
        }
        .clamped();
        debug_assert!(candidate.validate().is_ok(), "clamped config must validate");
        self.config.batch_size = candidate.batch_size;
        self.config.batch_delay = candidate.batch_delay;
        (self.config.batch_size, self.config.batch_delay)
    }

    /// The batching pair currently in force (after online actuation).
    pub fn batch_config(&self) -> (usize, f64) {
        (self.config.batch_size, self.config.batch_delay)
    }

    /// Installs (or clears) a retransmission budget on every current and
    /// future client. Existing clients restart from the full burst
    /// allowance.
    pub fn set_retry_budget(&mut self, config: Option<RetryBudgetConfig>) {
        self.retry_budget = config;
        for client in self.clients.values_mut() {
            client.retry_budget = config.map(RetryBudget::new);
        }
    }

    /// REQUEST messages received by replicas so far (original sends plus
    /// retransmissions; each broadcast counts once per receiving replica).
    pub fn request_receptions(&self) -> u64 {
        self.request_receptions
    }

    /// Client retransmissions `(sent, suppressed_by_budget)` so far.
    pub fn retransmission_stats(&self) -> (u64, u64) {
        (self.retransmissions_sent, self.retransmissions_suppressed)
    }

    /// Drains every client's completed-request latencies (seconds), in
    /// client-id order — the per-window observation feed of the autotune
    /// loop. Subsequent workload reports only cover samples recorded after
    /// the drain.
    pub fn take_latencies(&mut self) -> Vec<f64> {
        let mut ids: Vec<NodeId> = self.clients.keys().copied().collect();
        ids.sort_unstable();
        let mut all = Vec::new();
        for id in ids {
            let client = self.clients.get_mut(&id).expect("client id just listed");
            all.append(&mut client.latencies);
        }
        all
    }

    /// Test-only fault injection: makes the replica execute a corrupted
    /// digest for every subsequent request while still reporting itself as
    /// correct. This simulates an implementation bug (not an attacker, which
    /// is modelled by [`ByzantineMode`]) and exists so that agreement oracles
    /// can be validated against a known safety violation. A recovery clears
    /// the flag.
    pub fn inject_double_commit(&mut self, replica: NodeId) {
        if let Some(r) = self.replicas.get_mut(&replica) {
            r.corrupt_execution = true;
        }
    }

    /// Registers a new closed-loop client and returns its identifier.
    pub fn add_client(&mut self) -> NodeId {
        let id = CLIENT_ID_BASE + self.clients.len() as NodeId;
        self.clients.insert(
            id,
            ClientState {
                id,
                next_request_id: 0,
                outstanding: None,
                completed: 0,
                latencies: Vec::new(),
                closed_loop: false,
                op_stream: None,
                retry_budget: self.retry_budget.map(RetryBudget::new),
            },
        );
        id
    }

    /// Submits one request from the given client and returns it (so callers
    /// such as invariant oracles can record its digest).
    ///
    /// # Panics
    ///
    /// Panics if the client is unknown or already has an outstanding request.
    pub fn submit(&mut self, client: NodeId, operation: Operation) -> Request {
        let now = self.network.now();
        let request = {
            let state = self.clients.get_mut(&client).expect("unknown client");
            assert!(
                state.outstanding.is_none(),
                "client already has an outstanding request"
            );
            let request = Request {
                client,
                id: state.next_request_id,
                operation,
            };
            state.next_request_id += 1;
            state.outstanding = Some((request, HashMap::new(), now));
            request
        };
        let members = self.membership.clone();
        self.network
            .broadcast(client, &members, &Message::Request(request));
        request
    }

    /// Marks a replica as compromised with the given behaviour.
    ///
    /// # Panics
    ///
    /// Panics if the replica is unknown.
    pub fn set_byzantine(&mut self, replica: NodeId, mode: ByzantineMode) {
        self.replicas
            .get_mut(&replica)
            .expect("unknown replica")
            .byzantine = mode;
    }

    /// Assigns (or clears) a protocol-aware attacker strategy on a replica.
    /// A recovery rebuilds the replica and thereby clears the attacker.
    pub fn set_attacker(&mut self, replica: NodeId, attacker: Option<AttackerKind>) {
        if let Some(r) = self.replicas.get_mut(&replica) {
            r.attacker = attacker;
        }
    }

    /// The attacker strategy a replica currently runs with.
    pub fn attacker(&self, replica: NodeId) -> Option<AttackerKind> {
        self.replicas.get(&replica).and_then(|r| r.attacker)
    }

    /// The retained prepared certificates of a replica as
    /// `(sequence, view, batch digest)` — the observability hook of the
    /// equivocation properties: an honest replica must never bind one
    /// `(view, sequence)` to two different digests, and no two honest
    /// replicas may disagree on the digest prepared at the same
    /// `(view, sequence)`.
    pub fn prepared_entries(&self, replica: NodeId) -> Vec<(u64, u64, Digest)> {
        self.replicas
            .get(&replica)
            .map(|r| {
                r.prepared
                    .iter()
                    .map(|(&sequence, (view, batch))| (sequence, *view, batch_digest(batch)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The last counter a replica's USIG assigned (0 if none): the trusted
    /// monotonic counter of the equivocation properties — even an attacker
    /// cannot sign two messages with one counter value.
    pub fn usig_last_counter(&self, replica: NodeId) -> Option<u64> {
        self.replicas.get(&replica).map(|r| r.usig.last_counter())
    }

    /// `replica`'s FIFO acceptance cursor for `sender`: the highest USIG
    /// counter it has consumed from that peer. A counter is consumed at
    /// most once (acceptance is counter-consecutive), so the cursor never
    /// exceeds the sender's own [`Self::usig_last_counter`].
    pub fn ui_cursor(&self, replica: NodeId, sender: NodeId) -> u64 {
        self.replicas
            .get(&replica)
            .and_then(|r| r.ui_high.get(&sender).copied())
            .unwrap_or(0)
    }

    /// The attacker egress filter: what a compromised sender does with one
    /// outgoing message. Withheld messages never reach the network (the
    /// accounting oracle never sees them as sent); held messages are
    /// released by `check_timeouts` at the view-change timeout boundary.
    fn attacker_egress(&self, sender: NodeId, dest: NodeId, message: &Message) -> EgressAction {
        let Some(attacker) = self.replicas.get(&sender).and_then(|r| r.attacker) else {
            return EgressAction::Deliver;
        };
        match attacker {
            AttackerKind::EquivocatingLeader | AttackerKind::LyingDonor => EgressAction::Deliver,
            AttackerKind::VoteWithholding => {
                // Starve a targeted commit quorum: the f + 1 lowest-id
                // peers never see this attacker's COMMIT votes.
                if matches!(message, Message::Commit { .. }) {
                    let f = hybrid_fault_threshold(self.membership.len(), 0);
                    let targeted = self
                        .membership
                        .iter()
                        .filter(|&&id| id != sender)
                        .take(f + 1)
                        .any(|&id| id == dest);
                    if targeted {
                        return EgressAction::Withhold;
                    }
                }
                EgressAction::Deliver
            }
            AttackerKind::DelayedVotes => {
                if matches!(message, Message::Commit { .. } | Message::ViewChange { .. }) {
                    EgressAction::Hold
                } else {
                    EgressAction::Deliver
                }
            }
            AttackerKind::ReplySuppression => {
                // The targeted client is the fleet's first (lowest id).
                if matches!(message, Message::Reply { .. }) && dest == CLIENT_ID_BASE {
                    EgressAction::Withhold
                } else {
                    EgressAction::Deliver
                }
            }
        }
    }

    /// Sends one point-to-point message through the attacker egress filter.
    fn route_send(&mut self, sender: NodeId, dest: NodeId, message: Message) {
        match self.attacker_egress(sender, dest, &message) {
            EgressAction::Deliver => self.network.send(sender, dest, message),
            EgressAction::Withhold => {}
            EgressAction::Hold => {
                let release_at = self.network.now() + self.config.request_timeout;
                self.held_messages.push(HeldMessage {
                    release_at,
                    from: sender,
                    to: dest,
                    message,
                });
            }
        }
    }

    /// Broadcasts through the attacker egress filter. Honest senders take
    /// the network's native broadcast (bit-identical with pre-attacker
    /// replays); attacker senders expand to per-destination sends so the
    /// filter can decide each edge separately.
    fn route_broadcast(&mut self, sender: NodeId, members: &[NodeId], message: Message) {
        let is_attacker = self
            .replicas
            .get(&sender)
            .is_some_and(|r| r.attacker.is_some());
        if !is_attacker {
            self.network.broadcast(sender, members, &message);
            return;
        }
        for &member in members {
            if member == sender {
                continue;
            }
            self.route_send(sender, member, message.clone());
        }
    }

    /// Crashes a replica (it stops processing and the network drops its
    /// traffic).
    pub fn crash_replica(&mut self, replica: NodeId) {
        if let Some(r) = self.replicas.get_mut(&replica) {
            r.crashed = true;
        }
        self.network.crash(replica);
    }

    /// Recovers a replica: clears its Byzantine mode, resets its protocol
    /// state and requests a state transfer from the other replicas. This is
    /// the operation the paper's node controllers trigger (Section VII-C).
    ///
    /// Returns `false` when the recovery was **deferred**: the rebuild only
    /// proceeds when a live donor *at or beyond the target's execution
    /// frontier* exists. Rebuilding the unique frontier holder (e.g. the
    /// last live member of a commit quorum whose peers crashed) would
    /// erase the cluster's only copy of the committed suffix — the adopted
    /// transfer would roll the replica back, and the next view-change
    /// ballot would gap-fill the erased sequences with empty batches and
    /// re-assign them (an agreement violation found by the 300-run
    /// controlled chaos sweep, seed 194). While deferred the target keeps
    /// participating (its certificates stay reachable through view
    /// changes, which is how lagging peers catch up to the frontier), and
    /// the caller retries on the next BTR tick.
    pub fn recover_replica(&mut self, replica: NodeId) -> bool {
        self.network.restart(replica);
        let target_frontier = self
            .replicas
            .get(&replica)
            .map(|r| r.last_executed)
            .unwrap_or(0);
        let donor_exists = self.membership.iter().any(|&id| {
            id != replica
                && self.replicas.get(&id).is_some_and(|r| {
                    !r.crashed && !r.needs_state && r.last_executed >= target_frontier
                })
        });
        if !donor_exists {
            return false;
        }
        let membership = self.membership.clone();
        let directory = self.directory.clone();
        let seed = self.config.seed;
        if let Some(r) = self.replicas.get_mut(&replica) {
            let view = r.view;
            let epoch = r.epoch;
            *r = Replica::new(replica, membership.clone(), directory, seed);
            r.view = view;
            r.epoch = epoch;
            r.needs_state = true;
            // The pull below is a broadcast, so the first-arriving response
            // may come from a donor lagging behind this replica's own
            // pre-recovery frontier. Adopting it would forget certificates
            // for sequences this replica already committed — the rollback
            // the `recovery_floor` field exists to refuse. The donor check
            // above guarantees a live peer at or beyond the floor, and the
            // pull is re-announced every step until one answers.
            r.recovery_floor = target_frontier;
            r.min_lead_view = view + 1;
        }
        // Ask every other replica for a state transfer; verifiers must also
        // forget the recovered replica's old USIG counter, and the FIFO
        // cursor with it — the fresh USIG restarts at counter 1, which
        // would sit below a stale cursor forever. PREPAREs parked under
        // the old counter stream are void too.
        for (&other_id, other) in self.replicas.iter_mut() {
            if other_id != replica {
                other.verifier.reset_replica(replica);
                other.ui_high.remove(&replica);
                other
                    .parked_prepares
                    .retain(|_, (_, _, _, ui)| ui.replica != replica);
            }
        }
        self.send_state_transfer(replica);
        // The push above goes to a single donor, which may be an attacker
        // serving forged frontiers; a broadcast pull reaches every live
        // donor, so one honest transfer always lands (this mirrors the
        // message-driven `ControlMessage::Recover` path).
        let epoch = self.replicas.get(&replica).map(|r| r.epoch).unwrap_or(0);
        let members = self.membership.clone();
        self.network
            .broadcast(replica, &members, &Message::StateRequest { epoch });
        true
    }

    /// Sends a state transfer to `recipient` from the most up-to-date live
    /// donor. Adopting an arbitrary (first-arriving) snapshot would let a
    /// recovered replica roll back below the committed frontier — repeated
    /// recoveries could then erase the cluster's memory of committed
    /// sequence numbers and re-assign them. Donors that are crashed or
    /// themselves awaiting a transfer never push (amnesia must not spread);
    /// if no donor exists, the recipient stays in `needs_state` until a
    /// later recovery retries.
    fn send_state_transfer(&mut self, recipient: NodeId) {
        let donor = self
            .membership
            .iter()
            .copied()
            .filter(|&id| {
                id != recipient && !self.replicas[&id].crashed && !self.replicas[&id].needs_state
            })
            .max_by_key(|&id| (self.replicas[&id].last_executed, std::cmp::Reverse(id)));
        if let Some(donor) = donor {
            let mut state = state_transfer_message(&self.replicas[&donor]);
            if self.replicas[&donor].attacker == Some(AttackerKind::LyingDonor) {
                forge_state_transfer(&mut state);
            }
            self.network.send(donor, recipient, state);
        }
    }

    /// Restarts a crashed replica with its state intact (fail-stop recovery
    /// with stable storage). Unlike [`MinBftCluster::recover_replica`], the
    /// log, USIG counter and protocol state survive: this is the right
    /// operation for a crash, whereas a (suspected) compromise requires the
    /// full rebuild + state transfer of `recover_replica`.
    pub fn restart_replica(&mut self, replica: NodeId) {
        self.network.restart(replica);
        if let Some(r) = self.replicas.get_mut(&replica) {
            r.crashed = false;
        }
    }

    /// Adds a new replica to the system (the JOIN reconfiguration used by the
    /// system controller). Returns the new replica's identifier.
    pub fn add_replica(&mut self) -> NodeId {
        let id = self.next_node_id;
        self.next_node_id += 1;
        let keys = KeyPair::derive(id, self.config.seed);
        self.directory.register(&keys);
        self.membership.push(id);
        // Refresh every replica's directory and membership through a
        // lightweight reconfiguration view change.
        self.epoch += 1;
        let new_membership = self.membership.clone();
        for replica in self.replicas.values_mut() {
            replica.membership = new_membership.clone();
            replica.verifier = UsigVerifier::new(self.directory.clone());
            // Prepared entries and commit votes are kept: they are genuine
            // USIG-certified statements, and wiping them would erase the
            // prepared high-water marks that stop a post-reconfiguration
            // leader from re-assigning executed sequence numbers. Only the
            // view-change ballots are reset (they belong to the old epoch).
            replica.view_change_votes.clear();
            replica.epoch = self.epoch;
        }
        let mut new_replica =
            Replica::new(id, new_membership, self.directory.clone(), self.config.seed);
        new_replica.needs_state = true;
        new_replica.epoch = self.epoch;
        self.replicas.insert(id, new_replica);
        self.sync_lagging_replicas();
        self.reconfiguration_view_change();
        // State transfer to the newcomer, from the most up-to-date donor.
        self.send_state_transfer(id);
        self.view_changes += 1;
        id
    }

    /// Evicts a replica from the system (the EVICT reconfiguration).
    pub fn evict_replica(&mut self, replica: NodeId) {
        self.membership.retain(|&id| id != replica);
        self.replicas.remove(&replica);
        self.network.crash(replica);
        self.epoch += 1;
        let new_membership = self.membership.clone();
        for r in self.replicas.values_mut() {
            r.membership = new_membership.clone();
            // See `add_replica`: prepared/commit state survives the
            // reconfiguration, only the view-change ballots reset.
            r.view_change_votes.clear();
            r.epoch = self.epoch;
        }
        self.sync_lagging_replicas();
        self.reconfiguration_view_change();
        self.view_changes += 1;
    }

    /// The reconfiguration state barrier: every live replica whose execution
    /// frontier lags the cluster's is forced through a state sync
    /// (`needs_state` + transfer) before the new epoch's first view change.
    ///
    /// Without this, resizing the membership can break quorum intersection
    /// with *old-configuration* commit quorums: a batch committed by `f + 1`
    /// replicas of the old membership may, after an EVICT, be certified by
    /// too few survivors to appear in every new-configuration view-change
    /// ballot — a ballot formed entirely by laggards would then gap-fill the
    /// committed sequences with no-ops and re-assign their requests
    /// (cross-configuration split brain; found by the simnet chaos sweep).
    /// Barring laggards from ballots until they adopt the frontier restores
    /// the intersection argument: every participating voter's
    /// `last_executed` covers all compacted-or-committed history, so gap
    /// filling can only hit sequences no replica executed.
    fn sync_lagging_replicas(&mut self) {
        let frontier = self
            .membership
            .iter()
            .filter_map(|id| self.replicas.get(id))
            .filter(|r| !r.crashed && !r.needs_state)
            .map(|r| r.last_executed)
            .max()
            .unwrap_or(0);
        let laggards: Vec<NodeId> = self
            .membership
            .iter()
            .copied()
            .filter(|id| {
                self.replicas
                    .get(id)
                    .is_some_and(|r| !r.crashed && !r.needs_state && r.last_executed < frontier)
            })
            .collect();
        for id in laggards {
            if let Some(r) = self.replicas.get_mut(&id) {
                r.needs_state = true;
            }
            self.send_state_transfer(id);
        }
    }

    /// Hands leadership over through an explicit view-change round after a
    /// reconfiguration. Resizing the membership re-maps `view → leader`, and
    /// the new mapping may point at a lagging replica whose stale sequence
    /// counter would re-assign executed sequence numbers; every replica is
    /// therefore barred from leading its current view, and each healthy
    /// replica immediately broadcasts a view-change vote so the next view is
    /// installed (message-driven, no timeout needed) with the quorum's
    /// high-water marks bounding the new leader's sequence counter.
    fn reconfiguration_view_change(&mut self) {
        let members = self.membership.clone();
        let mut votes: Vec<(NodeId, u64, u64, u64)> = Vec::new();
        for &id in &members {
            let Some(r) = self.replicas.get_mut(&id) else {
                continue;
            };
            r.min_lead_view = r.min_lead_view.max(r.view + 1);
            if !r.crashed && !r.needs_state && r.byzantine != ByzantineMode::Silent {
                r.voted_view = r.voted_view.max(r.view + 1);
                votes.push((id, r.view + 1, replica_high_sequence(r), r.stable_sequence));
            }
        }
        let epoch = self.epoch;
        for (id, new_view, high_sequence, stable_sequence) in votes {
            let prepared = prepared_report(&self.replicas[&id]);
            self.network.broadcast(
                id,
                &members,
                &Message::ViewChange {
                    epoch,
                    new_view,
                    high_sequence,
                    stable_sequence,
                    prepared,
                },
            );
        }
    }

    /// The earliest pending timer: a client retransmission
    /// (`started + request_timeout`), a replica stall vote
    /// (`first_seen + request_timeout`) or a partial-batch flush
    /// (`oldest pending + batch_delay`). Event loops advance the clock here
    /// when no deliveries remain — without a timer wheel, a fully stalled
    /// system (every message already delivered or lost) would only recover
    /// at the run's final deadline, and a single quiet stall would zero out
    /// the rest of a throughput run. Every expression matches the firing
    /// condition in `check_timeouts` ulp-for-ulp.
    fn next_timer_deadline(&self) -> Option<SimTime> {
        let timeout = self.config.request_timeout;
        let params = self.protocol_params();
        let now = self.network.now();
        let mut deadline = f64::INFINITY;
        for client in self.clients.values() {
            if let Some((_, _, started)) = &client.outstanding {
                deadline = deadline.min(started + timeout);
            }
        }
        for &id in &self.membership {
            let Some(replica) = self.replicas.get(&id) else {
                continue;
            };
            if replica.crashed || replica.byzantine == ByzantineMode::Silent || replica.needs_state
            {
                continue;
            }
            for &first_seen in replica.request_first_seen.values() {
                deadline = deadline.min(first_seen + timeout);
            }
            if let Some(t) = batch_flush_deadline(replica, &params, now) {
                deadline = deadline.min(t);
            }
        }
        for held in &self.held_messages {
            deadline = deadline.min(held.release_at);
        }
        deadline.is_finite().then_some(deadline)
    }

    /// Runs the event loop until `deadline` (simulated seconds).
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            // Bounded pop: messages at the queue head that must be dropped
            // are consumed, but nothing beyond the deadline is dispatched.
            while let Some(delivery) = self.network.next_delivery_until(deadline) {
                self.dispatch(delivery.from, delivery.to, delivery.message, delivery.time);
                self.check_timeouts();
            }
            // No deliveries left before the deadline: advance the clock to
            // the next timer (retransmission, stall vote, batch flush) so a
            // quiet stall recovers instead of persisting to the deadline.
            let Some(timer_at) = self.next_timer_deadline().filter(|&t| t <= deadline) else {
                break;
            };
            self.network.advance_to(timer_at);
            self.check_timeouts();
        }
        self.network.advance_to(deadline);
        self.check_timeouts();
    }

    /// Runs the event loop until the system is quiet (no deliveries and no
    /// pending timers) or `max_time` is reached.
    pub fn run_until_quiet(&mut self, max_time: SimTime) {
        loop {
            while let Some(delivery) = self.network.next_delivery_until(max_time) {
                self.dispatch(delivery.from, delivery.to, delivery.message, delivery.time);
                self.check_timeouts();
            }
            self.check_timeouts();
            let Some(timer_at) = self.next_timer_deadline().filter(|&t| t <= max_time) else {
                break;
            };
            self.network.advance_to(timer_at);
            self.check_timeouts();
        }
    }

    /// Number of completed requests of a client.
    pub fn completed_requests(&self, client: NodeId) -> u64 {
        self.clients.get(&client).map(|c| c.completed).unwrap_or(0)
    }

    /// Whether the client still has an unanswered request in flight.
    pub fn has_outstanding_request(&self, client: NodeId) -> bool {
        self.clients
            .get(&client)
            .map(|c| c.outstanding.is_some())
            .unwrap_or(false)
    }

    /// The service value stored at a replica (for tests).
    pub fn replica_value(&self, replica: NodeId) -> Option<u64> {
        self.replicas.get(&replica).map(|r| r.value)
    }

    /// The key-value entry stored at a replica (for tests).
    pub fn replica_kv(&self, replica: NodeId, key: u32) -> Option<u64> {
        self.replicas
            .get(&replica)
            .and_then(|r| r.kv.get(&key).copied())
    }

    /// The value a replica holds staged (reserved, uncommitted) for
    /// `(tx, key)`, if any — the observability hook of the MultiPut
    /// atomicity tests: a staged write must never be visible through
    /// [`Operation::Get`].
    pub fn replica_staged(&self, replica: NodeId, tx: u64, key: u32) -> Option<u64> {
        self.replicas
            .get(&replica)
            .and_then(|r| r.staged.get(&(tx, key)).copied())
    }

    /// Retained executed-request logs of all non-crashed, non-Byzantine
    /// replicas, as `(replica, log_start, suffix)`.
    pub fn healthy_logs(&self) -> Vec<(NodeId, u64, Vec<Digest>)> {
        self.membership
            .iter()
            .filter_map(|&id| self.replicas.get(&id))
            .filter(|r| !r.crashed && r.byzantine == ByzantineMode::Correct)
            .map(|r| (r.id, r.log_start, r.executed.clone()))
            .collect()
    }

    /// Checks the safety property: every pair of healthy logs must agree on
    /// the log positions both of them retain (offset-aware prefix
    /// consistency under compaction).
    pub fn logs_are_consistent(&self) -> bool {
        let logs = self.healthy_logs();
        for (i, (_, start_a, a)) in logs.iter().enumerate() {
            for (_, start_b, b) in logs.iter().skip(i + 1) {
                if first_log_divergence(*start_a, a, *start_b, b).is_some() {
                    return false;
                }
            }
        }
        true
    }

    /// Runs a closed-loop throughput experiment with `clients` clients
    /// issuing write requests for `duration` simulated seconds (Fig. 10).
    pub fn run_throughput(&mut self, clients: usize, duration: f64) -> ThroughputReport {
        let client_ids: Vec<NodeId> = (0..clients).map(|_| self.add_client()).collect();
        for &c in &client_ids {
            self.clients.get_mut(&c).expect("client exists").closed_loop = true;
            self.submit(c, Operation::Write(c as u64));
        }
        let start = self.now();
        self.run_until(start + duration);
        let completed: u64 = client_ids.iter().map(|c| self.completed_requests(*c)).sum();
        let latencies: Vec<f64> = client_ids
            .iter()
            .flat_map(|c| self.clients[c].latencies.iter().copied())
            .collect();
        let mean_latency = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        ThroughputReport {
            replicas: self.membership.len(),
            clients,
            completed_requests: completed,
            duration,
            requests_per_second: completed as f64 / duration,
            mean_latency,
        }
    }

    /// Runs a configurable client workload (open- or closed-loop arrival
    /// over the key-value service) for `workload.duration` simulated
    /// seconds. The workload's own seed drives arrival times and operation
    /// mixes, independent of the cluster seed.
    pub fn run_workload(&mut self, workload: &WorkloadConfig) -> WorkloadReport {
        let mut arrivals_rng = StdRng::seed_from_u64(workload.seed ^ 0x776f_726b_6c6f_6164);
        let client_ids: Vec<NodeId> = (0..workload.clients.max(1))
            .map(|_| self.add_client())
            .collect();
        for (index, &c) in client_ids.iter().enumerate() {
            let state = self.clients.get_mut(&c).expect("client exists");
            state.op_stream = Some(OpStream::new(
                workload.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                workload.key_space,
                workload.write_ratio,
            ));
        }
        let start = self.now();
        let deadline = start + workload.duration;
        let mut offered: u64 = 0;
        let mut shed: u64 = 0;
        match workload.arrival {
            Arrival::Closed => {
                for &c in &client_ids {
                    let state = self.clients.get_mut(&c).expect("client exists");
                    state.closed_loop = true;
                    let op = state
                        .op_stream
                        .as_mut()
                        .expect("stream installed")
                        .next_op();
                    self.submit(c, op);
                }
                self.run_until(deadline);
            }
            Arrival::Open { rate } => {
                let rate = rate.max(1e-9);
                let mut next_arrival = start;
                let mut cursor = 0usize;
                loop {
                    let gap = -(1.0 - arrivals_rng.random::<f64>()).ln() / rate;
                    next_arrival += gap;
                    if next_arrival > deadline {
                        break;
                    }
                    self.run_until(next_arrival);
                    // Round-robin over the pool; an arrival with every
                    // client busy is shed (the open-loop overload signal).
                    let mut assigned = false;
                    for step in 0..client_ids.len() {
                        let c = client_ids[(cursor + step) % client_ids.len()];
                        if !self.has_outstanding_request(c) {
                            let op = self
                                .clients
                                .get_mut(&c)
                                .expect("client exists")
                                .op_stream
                                .as_mut()
                                .expect("stream installed")
                                .next_op();
                            self.submit(c, op);
                            offered += 1;
                            cursor = (cursor + step + 1) % client_ids.len();
                            assigned = true;
                            break;
                        }
                    }
                    if !assigned {
                        shed += 1;
                    }
                }
                self.run_until(deadline);
            }
        }
        let completed: u64 = client_ids.iter().map(|c| self.completed_requests(*c)).sum();
        if matches!(workload.arrival, Arrival::Closed) {
            let in_flight = client_ids
                .iter()
                .filter(|&&c| self.has_outstanding_request(c))
                .count() as u64;
            offered = completed + in_flight;
        }
        let latencies: Vec<f64> = client_ids
            .iter()
            .flat_map(|c| self.clients[c].latencies.iter().copied())
            .collect();
        let mean_latency = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        WorkloadReport {
            replicas: self.membership.len(),
            clients: client_ids.len(),
            offered,
            shed,
            completed_requests: completed,
            duration: workload.duration,
            requests_per_second: completed as f64 / workload.duration.max(1e-12),
            mean_latency,
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn dispatch(&mut self, from: NodeId, to: NodeId, message: Message, time: SimTime) {
        // Per-node serial processing time: a node that is busy handles the
        // message when it becomes free. Verifying a USIG certificate costs
        // `signature_time` on top (one per PREPARE/COMMIT — batching exists
        // to amortize exactly this).
        let verify_cost = match &message {
            Message::Prepare { .. } | Message::Commit { .. } => self.config.signature_time,
            _ => 0.0,
        };
        let busy = self.busy_until.get(&to).copied().unwrap_or(0.0);
        let handle_time = busy.max(time);
        self.busy_until
            .insert(to, handle_time + self.config.processing_time + verify_cost);

        if to >= CLIENT_ID_BASE {
            self.handle_client_message(from, to, message, handle_time);
        } else {
            self.handle_replica_message(from, to, message, handle_time);
        }
    }

    fn handle_client_message(&mut self, from: NodeId, to: NodeId, message: Message, time: SimTime) {
        let f = self.fault_threshold();
        let Some(client) = self.clients.get_mut(&to) else {
            return;
        };
        if let Message::Reply {
            request_id, value, ..
        } = message
        {
            let Some((request, votes, started)) = &mut client.outstanding else {
                return;
            };
            if request.id != request_id {
                return;
            }
            votes.entry(value).or_default().insert(from);
            let accepted = votes.values().any(|v| v.len() > f);
            if accepted {
                client.completed += 1;
                client.latencies.push(time - *started);
                client.outstanding = None;
                if let Some(budget) = client.retry_budget.as_mut() {
                    budget.on_success();
                }
                if client.closed_loop {
                    let client_id = client.id;
                    let completed = client.completed;
                    let op = match client.op_stream.as_mut() {
                        Some(stream) => stream.next_op(),
                        None => Operation::Write(client_id as u64 + completed),
                    };
                    self.submit(client_id, op);
                }
            }
        }
    }

    fn handle_replica_message(
        &mut self,
        from: NodeId,
        to: NodeId,
        message: Message,
        time: SimTime,
    ) {
        if matches!(message, Message::Request(_)) {
            self.request_receptions += 1;
        }
        let params = self.protocol_params();
        let mut out = StepOutput::default();
        {
            let Some(replica) = self.replicas.get_mut(&to) else {
                return;
            };
            if replica.crashed || replica.byzantine == ByzantineMode::Silent {
                return;
            }
            replica_on_message(
                replica,
                from,
                message,
                time,
                &params,
                &mut self.commit_trace,
                &mut out,
            );
        }
        // Creating USIG certificates keeps the node busy for
        // `signature_time` each (the send-side half of the cost model).
        if self.config.signature_time > 0.0 && out.created_uis > 0 {
            let busy = self.busy_until.get(&to).copied().unwrap_or(0.0);
            self.busy_until.insert(
                to,
                busy + self.config.signature_time * f64::from(out.created_uis),
            );
        }
        // Send outgoing traffic; sending happens when the node finished
        // processing.
        let members = self.membership.clone();
        self.network.advance_to(time + self.config.processing_time);
        for message in out.broadcast {
            let corrupted = self.maybe_corrupt(to, &message);
            self.route_broadcast(to, &members, corrupted);
        }
        for (dest, message) in out.outgoing {
            let corrupted = self.maybe_corrupt(to, &message);
            self.route_send(to, dest, corrupted);
        }
    }

    /// Applies the Byzantine behaviour of a compromised sender to an outgoing
    /// message. The USIG certificate cannot be forged, so an `Arbitrary`
    /// replica can only corrupt the unprotected payload fields.
    fn maybe_corrupt(&mut self, sender: NodeId, message: &Message) -> Message {
        let mode = self
            .replicas
            .get(&sender)
            .map(|r| r.byzantine)
            .unwrap_or(ByzantineMode::Correct);
        if mode != ByzantineMode::Arbitrary {
            return message.clone();
        }
        match message {
            Message::Reply {
                request_id,
                sequence,
                ..
            } => Message::Reply {
                request_id: *request_id,
                value: self.rng.random::<u64>(),
                sequence: *sequence,
            },
            Message::Commit {
                view, sequence, ui, ..
            } => Message::Commit {
                view: *view,
                sequence: *sequence,
                batch_digest: digest(&self.rng.random::<u64>().to_le_bytes()),
                ui: *ui,
            },
            other => other.clone(),
        }
    }

    /// Checks request timeouts: clients retransmit unanswered requests,
    /// leaders flush partial batches past their delay, and replicas vote for
    /// a view change when the leader appears unresponsive.
    fn check_timeouts(&mut self) {
        let now = self.network.now();
        let timeout = self.config.request_timeout;
        // Client retransmissions. Iterate in id order: HashMap order varies
        // between cluster instances, and the send order determines how the
        // network RNG is consumed, so a deterministic order is required for
        // byte-identical replays.
        let mut retransmissions: Vec<(NodeId, Request)> = Vec::new();
        let mut client_ids: Vec<NodeId> = self.clients.keys().copied().collect();
        client_ids.sort_unstable();
        for id in client_ids {
            let client = self.clients.get_mut(&id).expect("client id just listed");
            if let Some((request, _, started)) = &mut client.outstanding {
                // Canonical deadline form (see `next_timer_deadline`).
                if now >= *started + timeout {
                    // The deadline is re-armed even when the budget denies
                    // the retransmission: the client backs off for another
                    // timeout period (earning the trickle refill) instead
                    // of amplifying the overload that caused the loss.
                    *started = now;
                    let within_budget = client
                        .retry_budget
                        .as_mut()
                        .is_none_or(RetryBudget::try_retry);
                    if within_budget {
                        self.retransmissions_sent += 1;
                        retransmissions.push((client.id, *request));
                    } else {
                        self.retransmissions_suppressed += 1;
                    }
                }
            }
        }
        let members = self.membership.clone();
        for (client_id, request) in retransmissions {
            self.network
                .broadcast(client_id, &members, &Message::Request(request));
        }
        // Replica timers: batch flushes and view-change votes, in id order
        // for determinism.
        let params = self.protocol_params();
        let mut outputs: Vec<(NodeId, StepOutput)> = Vec::new();
        let mut replica_ids: Vec<NodeId> = self.replicas.keys().copied().collect();
        replica_ids.sort_unstable();
        for id in replica_ids {
            let replica = self.replicas.get_mut(&id).expect("replica id just listed");
            // Even a leader votes when its requests stall (its proposals may
            // be going into the void); only crashed, silent and
            // state-awaiting replicas sit out.
            if replica.crashed || replica.byzantine == ByzantineMode::Silent || replica.needs_state
            {
                continue;
            }
            let mut out = StepOutput::default();
            flush_stale_batch(replica, now, &params, &mut out);
            if let Some(vote) = stall_vote(replica, now, timeout) {
                out.broadcast.push(vote);
                self.view_changes += 1;
            }
            if !out.is_empty() {
                outputs.push((id, out));
            }
        }
        let members = self.membership.clone();
        for (id, out) in outputs {
            for message in out.broadcast {
                let corrupted = self.maybe_corrupt(id, &message);
                self.route_broadcast(id, &members, corrupted);
            }
            for (dest, message) in out.outgoing {
                let corrupted = self.maybe_corrupt(id, &message);
                self.route_send(id, dest, corrupted);
            }
        }
        // Attacker-held votes whose timeout boundary has passed go out now,
        // in insertion order (canonical deadline form `now >= release_at`,
        // matching `next_timer_deadline`).
        if !self.held_messages.is_empty() {
            let mut kept = Vec::new();
            let mut due = Vec::new();
            for held in self.held_messages.drain(..) {
                if now >= held.release_at {
                    due.push(held);
                } else {
                    kept.push(held);
                }
            }
            self.held_messages = kept;
            for held in due {
                self.network.send(held.from, held.to, held.message);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> MinBftCluster {
        MinBftCluster::new(MinBftConfig {
            initial_replicas: n,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.001,
                loss_rate: 0.0,
            },
            request_timeout: 0.5,
            ..MinBftConfig::default()
        })
    }

    #[test]
    fn config_validation_enforces_the_batch_fill_floor() {
        // batch_delay must cover batch_size × (processing + signature)
        // time, otherwise every batch flushes partial before it can fill.
        let good = MinBftConfig {
            batch_size: 16,
            batch_delay: 0.1,
            processing_time: 0.0008,
            signature_time: 0.002,
            ..MinBftConfig::default()
        };
        assert!(good.validate().is_ok());
        assert!((good.min_batch_delay() - 16.0 * 0.0028).abs() < 1e-12);

        let short = MinBftConfig {
            batch_delay: 0.005,
            ..good.clone()
        };
        assert!(matches!(
            short.validate(),
            Err(MinBftConfigError::BatchWindowTooShort { .. })
        ));
        let clamped = short.clamped();
        assert!(clamped.validate().is_ok());
        assert!((clamped.batch_delay - clamped.min_batch_delay()).abs() < 1e-12);

        // Unbatched pipelines have no floor.
        let unbatched = MinBftConfig {
            batch_size: 1,
            batch_delay: 0.0,
            ..MinBftConfig::default()
        };
        assert_eq!(unbatched.min_batch_delay(), 0.0);
        assert!(unbatched.validate().is_ok());

        let negative = MinBftConfig {
            request_timeout: -1.0,
            ..MinBftConfig::default()
        };
        assert!(matches!(
            negative.validate(),
            Err(MinBftConfigError::NegativeDuration { .. })
        ));
        assert!(negative.clamped().validate().is_ok());
        assert!(!negative.validate().unwrap_err().to_string().is_empty());
    }

    #[test]
    fn normal_case_commit_and_reply() {
        let mut cluster = cluster(4);
        let client = cluster.add_client();
        cluster.submit(client, Operation::Write(42));
        cluster.run_until_quiet(5.0);
        assert_eq!(cluster.completed_requests(client), 1);
        for &r in &[0, 1, 2, 3] {
            assert_eq!(cluster.replica_value(r), Some(42));
        }
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn sequence_of_requests_executes_in_order_on_all_replicas() {
        let mut cluster = cluster(4);
        let client = cluster.add_client();
        for value in [1u64, 2, 3, 4, 5] {
            cluster.submit(client, Operation::Write(value));
            cluster.run_until_quiet(60.0);
        }
        assert_eq!(cluster.completed_requests(client), 5);
        for &r in &[0, 1, 2, 3] {
            assert_eq!(cluster.replica_value(r), Some(5));
        }
        let logs = cluster.healthy_logs();
        assert!(logs.iter().all(|(_, _, log)| log.len() == 5));
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn key_value_operations_replicate_and_answer_reads() {
        let mut cluster = cluster(4);
        let client = cluster.add_client();
        cluster.submit(client, Operation::Put { key: 7, value: 99 });
        cluster.run_until_quiet(10.0);
        assert_eq!(cluster.completed_requests(client), 1);
        for &r in &[0, 1, 2, 3] {
            assert_eq!(cluster.replica_kv(r, 7), Some(99));
        }
        cluster.submit(client, Operation::Get { key: 7 });
        cluster.run_until_quiet(20.0);
        assert_eq!(cluster.completed_requests(client), 2);
        // A read of an absent key answers 0 and stores nothing.
        cluster.submit(client, Operation::Get { key: 8 });
        cluster.run_until_quiet(30.0);
        assert_eq!(cluster.completed_requests(client), 3);
        assert_eq!(cluster.replica_kv(0, 8), None);
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn tolerates_f_silent_replicas() {
        // n = 4, k = 1 => f = 1.
        let mut cluster = cluster(4);
        cluster.set_byzantine(3, ByzantineMode::Silent);
        let client = cluster.add_client();
        cluster.submit(client, Operation::Write(7));
        cluster.run_until_quiet(5.0);
        assert_eq!(cluster.completed_requests(client), 1);
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn tolerates_arbitrary_replies_from_compromised_replica() {
        let mut cluster = cluster(4);
        cluster.set_byzantine(2, ByzantineMode::Arbitrary);
        let client = cluster.add_client();
        cluster.submit(client, Operation::Write(99));
        cluster.run_until_quiet(5.0);
        // The client still completes with the correct value because it needs
        // f + 1 = 2 matching replies and only one replica lies.
        assert_eq!(cluster.completed_requests(client), 1);
        for &r in &[0, 1, 3] {
            assert_eq!(cluster.replica_value(r), Some(99));
        }
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn leader_crash_triggers_view_change_and_liveness_resumes() {
        let mut cluster = cluster(4);
        let client = cluster.add_client();
        // Crash the leader of view 0 (replica 0) before any request.
        cluster.crash_replica(0);
        cluster.submit(client, Operation::Write(5));
        // Drive time forward past the request timeout so followers vote.
        cluster.run_until(3.0);
        cluster.run_until_quiet(30.0);
        assert!(
            cluster.view_changes() > 0,
            "a view change should have occurred"
        );
        assert_eq!(
            cluster.completed_requests(client),
            1,
            "request should complete after view change"
        );
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn recovery_restores_replica_state_via_state_transfer() {
        let mut cluster = cluster(4);
        let client = cluster.add_client();
        cluster.submit(client, Operation::Write(11));
        cluster.run_until_quiet(5.0);
        // Compromise replica 1, then recover it.
        cluster.set_byzantine(1, ByzantineMode::Arbitrary);
        cluster.recover_replica(1);
        cluster.run_until_quiet(10.0);
        assert_eq!(
            cluster.replica_value(1),
            Some(11),
            "state transfer must restore the value"
        );
        // And the recovered replica participates again.
        cluster.submit(client, Operation::Write(12));
        cluster.run_until_quiet(20.0);
        assert_eq!(cluster.replica_value(1), Some(12));
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn join_and_evict_reconfigure_the_membership() {
        let mut cluster = cluster(4);
        let client = cluster.add_client();
        cluster.submit(client, Operation::Write(3));
        cluster.run_until_quiet(5.0);

        let new_id = cluster.add_replica();
        cluster.run_until_quiet(10.0);
        assert_eq!(cluster.num_replicas(), 5);
        assert_eq!(
            cluster.replica_value(new_id),
            Some(3),
            "joining replica receives the state"
        );

        cluster.evict_replica(1);
        assert_eq!(cluster.num_replicas(), 4);
        assert!(!cluster.membership().contains(&1));

        // The reconfigured cluster still commits requests.
        cluster.submit(client, Operation::Write(4));
        cluster.run_until_quiet(20.0);
        assert_eq!(cluster.completed_requests(client), 2);
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn throughput_decreases_with_more_replicas() {
        // Fig. 10 shape: more replicas => more messages per request at the
        // leader => lower saturation throughput.
        let mut small = cluster(3);
        let report_small = small.run_throughput(10, 20.0);
        let mut large = cluster(9);
        let report_large = large.run_throughput(10, 20.0);
        assert!(report_small.completed_requests > 0);
        assert!(report_large.completed_requests > 0);
        assert!(
            report_small.requests_per_second > report_large.requests_per_second,
            "throughput should drop with cluster size: {} vs {}",
            report_small.requests_per_second,
            report_large.requests_per_second
        );
        assert!(small.logs_are_consistent());
        assert!(large.logs_are_consistent());
    }

    #[test]
    fn throughput_increases_with_more_clients_until_saturation() {
        let mut one = cluster(4);
        let single = one.run_throughput(1, 10.0);
        let mut many = cluster(4);
        let twenty = many.run_throughput(20, 10.0);
        assert!(
            twenty.requests_per_second > single.requests_per_second,
            "20 clients should push more load: {} vs {}",
            twenty.requests_per_second,
            single.requests_per_second
        );
        assert!(single.mean_latency > 0.0);
    }

    #[test]
    fn batched_prepares_commit_whole_batches_per_sequence() {
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            batch_size: 8,
            batch_delay: 0.05,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.001,
                loss_rate: 0.0,
            },
            ..MinBftConfig::default()
        });
        let clients: Vec<NodeId> = (0..8).map(|_| cluster.add_client()).collect();
        for (i, &c) in clients.iter().enumerate() {
            cluster.submit(c, Operation::Write(i as u64 + 1));
        }
        cluster.run_until_quiet(10.0);
        for &c in &clients {
            assert_eq!(cluster.completed_requests(c), 1);
        }
        // 8 requests must fit into far fewer sequences than 8 (they arrive
        // within one batch delay of each other).
        let max_sequence = cluster
            .commit_trace()
            .iter()
            .map(|r| r.sequence)
            .max()
            .unwrap();
        assert!(
            max_sequence <= 2,
            "8 requests should commit in at most 2 batches, used {max_sequence}"
        );
        // All 8 executions appear in every replica's log.
        for &r in &[0, 1, 2, 3] {
            assert_eq!(cluster.executed_len(r), Some(8));
        }
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn partial_batches_flush_after_the_batch_delay() {
        // A single request under a large batch size must not stall: the
        // delay timer flushes the partial batch.
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            batch_size: 64,
            batch_delay: 0.02,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.001,
                loss_rate: 0.0,
            },
            ..MinBftConfig::default()
        });
        let client = cluster.add_client();
        cluster.submit(client, Operation::Write(5));
        cluster.run_until_quiet(5.0);
        assert_eq!(cluster.completed_requests(client), 1);
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn checkpoints_compact_the_log_and_bound_retained_state() {
        // Satellite-1 regression: with checkpoint period P, a long run's
        // retained log must stay below 2 * P on every replica (the previous
        // implementation never pruned `checkpoints` or the message log).
        let period = 10u64;
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            checkpoint_period: period,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.001,
                loss_rate: 0.0,
            },
            ..MinBftConfig::default()
        });
        let clients: Vec<NodeId> = (0..2).map(|_| cluster.add_client()).collect();
        for &c in &clients {
            cluster.clients.get_mut(&c).unwrap().closed_loop = true;
            cluster.submit(c, Operation::Write(1));
        }
        cluster.run_until(30.0);
        let total = cluster.executed_len(0).unwrap();
        assert!(total > 6 * period, "run too short to compact: {total}");
        for &r in &[0, 1, 2, 3] {
            let stats = cluster.retained_stats(r).unwrap();
            assert!(
                stats.log_start > 0,
                "replica {r} never compacted: {stats:?}"
            );
            let bound = (2 * period) as usize;
            assert!(
                stats.retained_log < bound,
                "replica {r} retained log {} >= {bound}",
                stats.retained_log
            );
            assert!(
                stats.prepared < bound,
                "replica {r} prepared {} >= {bound}",
                stats.prepared
            );
            assert!(
                stats.commit_votes < bound,
                "replica {r} commit votes {} >= {bound}",
                stats.commit_votes
            );
            assert!(
                stats.checkpoint_votes < bound,
                "replica {r} checkpoint ballots {} >= {bound}",
                stats.checkpoint_votes
            );
        }
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn recovery_after_compaction_restores_state_without_reexecution() {
        // GC safety: a replica recovered after the cluster compacted its
        // logs adopts the stable-checkpoint state by transfer and never
        // re-executes compacted sequences.
        let period = 5u64;
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            checkpoint_period: period,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.001,
                loss_rate: 0.0,
            },
            ..MinBftConfig::default()
        });
        let client = cluster.add_client();
        for value in 1..=12u64 {
            cluster.submit(client, Operation::Write(value));
            cluster.run_until_quiet(120.0);
        }
        assert_eq!(cluster.completed_requests(client), 12);
        let stable = cluster.stable_checkpoint(1).unwrap();
        assert!(stable >= period, "no compaction happened: {stable}");

        let trace_before = cluster.commit_trace().len();
        cluster.recover_replica(1);
        cluster.run_until_quiet(180.0);
        assert!(!cluster.needs_state(1), "state transfer must land");
        assert_eq!(cluster.replica_value(1), Some(12));
        assert!(
            cluster.executed_log_start(1).unwrap() > 0,
            "the recovered replica must adopt the compacted log shape"
        );
        // Nothing at or below the stable checkpoint was re-executed by the
        // recovered instance.
        for record in &cluster.commit_trace()[trace_before..] {
            if record.replica == 1 {
                assert!(
                    record.sequence > stable,
                    "replica 1 re-executed compacted sequence {}",
                    record.sequence
                );
            }
        }
        // And the service keeps running through the recovered replica.
        cluster.submit(client, Operation::Write(13));
        cluster.run_until_quiet(240.0);
        assert_eq!(cluster.completed_requests(client), 13);
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn view_change_with_truncated_logs_preserves_liveness_and_agreement() {
        // GC safety under leader failure: after compaction, crash the leader
        // — the view change must succeed from retained certificates alone.
        let period = 5u64;
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            checkpoint_period: period,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.001,
                loss_rate: 0.0,
            },
            request_timeout: 0.5,
            ..MinBftConfig::default()
        });
        let client = cluster.add_client();
        for value in 1..=11u64 {
            cluster.submit(client, Operation::Write(value));
            cluster.run_until_quiet(120.0);
        }
        assert!(cluster.stable_checkpoint(0).unwrap() >= period);

        cluster.submit(client, Operation::Write(12));
        cluster.run_until(cluster.now() + 0.001);
        cluster.crash_replica(0);
        cluster.run_until(cluster.now() + 3.0);
        cluster.run_until_quiet(240.0);
        assert!(cluster.view_changes() > 0, "followers must vote a new view");
        assert_eq!(
            cluster.completed_requests(client),
            12,
            "the mid-flight request must complete under the new leader"
        );
        for &r in &[1, 2, 3] {
            assert_eq!(cluster.replica_value(r), Some(12));
        }
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn leader_crash_mid_request_completes_after_view_change() {
        let mut cluster = cluster(4);
        let client = cluster.add_client();
        // First request commits normally so every replica has state.
        cluster.submit(client, Operation::Write(1));
        cluster.run_until_quiet(5.0);
        assert_eq!(cluster.completed_requests(client), 1);

        // Second request: crash the leader *mid-request* — the request is in
        // flight (broadcast by the client) but not yet proposed, so the
        // followers must detect the stall and vote a view change.
        cluster.submit(client, Operation::Write(2));
        cluster.run_until(cluster.now() + 0.001); // below the link latency
        cluster.crash_replica(0);
        cluster.run_until(cluster.now() + 3.0);
        cluster.run_until_quiet(60.0);

        assert!(cluster.view_changes() > 0, "followers must vote a new view");
        assert_eq!(
            cluster.completed_requests(client),
            2,
            "the mid-flight request must complete under the new leader"
        );
        for &r in &[1, 2, 3] {
            assert_eq!(cluster.replica_value(r), Some(2));
        }
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn recovered_ex_leader_rejoins_without_double_committing() {
        // Regression: a recovered replica restarts with `next_sequence = 1`
        // until its state transfer arrives. If it is (still) the leader and
        // proposes in that window, it re-commits old sequence numbers with
        // new requests. The `needs_state` guard must prevent this.
        let mut cluster = cluster(4);
        let client = cluster.add_client();
        for value in [1u64, 2, 3] {
            cluster.submit(client, Operation::Write(value));
            cluster.run_until_quiet(30.0);
        }
        assert_eq!(cluster.completed_requests(client), 3);

        // Recover the view-0 leader, but partition it first so the state
        // transfer cannot reach it: it rejoins with an empty log.
        cluster.partition_network(&[0], &[1, 2, 3]);
        cluster.recover_replica(0);
        cluster.run_until_quiet(5.0);
        assert!(
            cluster.needs_state(0),
            "state transfer must not get through"
        );
        cluster.heal_network();

        // The ex-leader is still the leader of the current view. New
        // requests must not let it re-propose from sequence 1.
        cluster.submit(client, Operation::Write(4));
        cluster.run_until(cluster.now() + 3.0);
        cluster.run_until_quiet(120.0);
        assert_eq!(
            cluster.completed_requests(client),
            4,
            "liveness must resume via a view change around the amnesiac leader"
        );

        // No replica may have committed two different digests at the same
        // sequence number (the double-commit signature).
        let mut per_replica: std::collections::HashMap<(NodeId, u64), Digest> =
            std::collections::HashMap::new();
        for record in cluster.commit_trace() {
            if let Some(previous) =
                per_replica.insert((record.replica, record.sequence), record.digest)
            {
                assert_eq!(
                    previous, record.digest,
                    "replica {} double-committed sequence {}",
                    record.replica, record.sequence
                );
            }
        }
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn commit_trace_records_every_execution_and_flags_injected_corruption() {
        let mut cluster = cluster(4);
        let client = cluster.add_client();
        cluster.submit(client, Operation::Write(9));
        cluster.run_until_quiet(5.0);
        // All four replicas executed sequence 1 with the same digest.
        let records: Vec<_> = cluster
            .commit_trace()
            .iter()
            .filter(|r| r.sequence == 1)
            .collect();
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.digest == records[0].digest));

        // Inject the test-only double-commit bug into replica 2.
        cluster.inject_double_commit(2);
        cluster.submit(client, Operation::Write(10));
        cluster.run_until_quiet(10.0);
        let seq2: Vec<_> = cluster
            .commit_trace()
            .iter()
            .filter(|r| r.sequence == 2)
            .collect();
        let corrupted: Vec<_> = seq2.iter().filter(|r| r.replica == 2).collect();
        let honest: Vec<_> = seq2.iter().filter(|r| r.replica != 2).collect();
        assert!(!corrupted.is_empty() && !honest.is_empty());
        assert_ne!(
            corrupted[0].digest, honest[0].digest,
            "the injected bug must surface as a conflicting commit"
        );
        assert!(
            !cluster.logs_are_consistent(),
            "the safety checker must see the divergence"
        );
    }

    #[test]
    fn fault_threshold_reflects_membership_size() {
        let cluster = cluster(6);
        // n = 6, k = 1 => f = 2.
        assert_eq!(cluster.fault_threshold(), 2);
        assert_eq!(cluster.num_replicas(), 6);
    }

    /// Runs one burst of single-operation clients to completion and returns
    /// the simulated finish time.
    fn pipelined_burst_finish_time(pipeline_window: usize, clients: usize) -> f64 {
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            pipeline_window,
            // Nonzero USIG signing cost, but latency-dominated: a serial
            // window pays sign + a full commit round trip per sequence,
            // while a wider window keeps W sequences in flight so the
            // signing and the round trips overlap. (When per-message
            // verification dominates instead, every replica's CPU is the
            // bottleneck and no window setting helps — that regime is the
            // reason the default stays unbounded.)
            signature_time: 0.0005,
            processing_time: 0.0001,
            network: NetworkConfig {
                latency: 0.01,
                jitter: 0.0,
                loss_rate: 0.0,
            },
            request_timeout: 5.0,
            ..MinBftConfig::default()
        });
        let client_ids: Vec<NodeId> = (0..clients).map(|_| cluster.add_client()).collect();
        for &c in &client_ids {
            cluster.submit(c, Operation::Write(7));
        }
        cluster.run_until_quiet(60.0);
        for &c in &client_ids {
            assert_eq!(cluster.completed_requests(c), 1, "burst must complete");
        }
        assert!(cluster.logs_are_consistent());
        assert_eq!(cluster.view_changes(), 0, "no spurious view changes");
        cluster.now()
    }

    #[test]
    fn pipelined_window_beats_serial_at_nonzero_signature_time() {
        // The tentpole perf claim, checked deterministically in simulation:
        // with pipeline_window = 1 each sequence pays sign + 2 network hops
        // serially; with a wider window the leader keeps W sequences in
        // flight and the signing overlaps the round trips.
        let serial = pipelined_burst_finish_time(1, 12);
        let pipelined = pipelined_burst_finish_time(4, 12);
        assert!(
            pipelined * 1.5 <= serial,
            "window=4 must beat window=1 by >= 1.5x: serial {serial:.4}s, \
             pipelined {pipelined:.4}s"
        );
        // And the unbounded legacy window is no slower than W = 4.
        let unbounded = pipelined_burst_finish_time(0, 12);
        assert!(
            unbounded <= serial,
            "window=0 (unbounded) must not be slower than serial"
        );
    }

    #[test]
    fn view_change_recovers_multiple_uncommitted_in_flight_sequences() {
        // Pipelining changes the view-change obligation: the new leader may
        // inherit several uncommitted sequences at once (up to W), and must
        // re-propose every prepared certificate plus the parked backlog.
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            pipeline_window: 4,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.0,
                loss_rate: 0.0,
            },
            request_timeout: 0.5,
            ..MinBftConfig::default()
        });
        let clients: Vec<NodeId> = (0..6).map(|_| cluster.add_client()).collect();
        // Warm up: one committed sequence so every replica has state.
        cluster.submit(clients[0], Operation::Write(1));
        cluster.run_until_quiet(5.0);
        assert_eq!(cluster.completed_requests(clients[0]), 1);

        // Burst of 6 requests into a window of 4: the leader proposes 4
        // concurrently and parks 2, then crashes before anything commits.
        for &c in &clients {
            cluster.submit(c, Operation::Write(2));
        }
        // Past the client->replica hop (2 ms), inside the commit round.
        cluster.run_until(cluster.now() + 0.0035);
        cluster.crash_replica(0);
        cluster.run_until(cluster.now() + 3.0);
        cluster.run_until_quiet(60.0);

        assert!(cluster.view_changes() > 0, "followers must vote a new view");
        for &c in &clients {
            assert_eq!(
                cluster.completed_requests(c),
                if c == clients[0] { 2 } else { 1 },
                "every in-flight request must complete under the new leader"
            );
        }
        for &r in &[1, 2, 3] {
            assert_eq!(cluster.replica_value(r), Some(2));
        }
        assert!(cluster.logs_are_consistent());
    }

    #[test]
    fn watermark_bounds_retained_state_with_a_lagging_replica() {
        // Satellite regression: with pipeline_window = W the retained
        // prepared/commit-vote state must stay O(W + checkpoint_period)
        // even when one replica lags (Silent: it neither executes nor
        // votes, so checkpoints stabilize on the f+1 live quorum and the
        // watermark — not the laggard — bounds the leader's in-flight
        // state.
        let period = 8u64;
        let window = 4usize;
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            checkpoint_period: period,
            pipeline_window: window,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.001,
                loss_rate: 0.0,
            },
            ..MinBftConfig::default()
        });
        cluster.set_byzantine(3, ByzantineMode::Silent);
        let clients: Vec<NodeId> = (0..3).map(|_| cluster.add_client()).collect();
        for &c in &clients {
            cluster.clients.get_mut(&c).unwrap().closed_loop = true;
            cluster.submit(c, Operation::Write(1));
        }
        cluster.run_until(30.0);
        let total = cluster.executed_len(0).unwrap();
        assert!(total > 6 * period, "run too short to compact: {total}");
        let bound = 2 * (period as usize + window);
        for &r in &[0, 1, 2] {
            let stats = cluster.retained_stats(r).unwrap();
            assert!(stats.log_start > 0, "replica {r} never compacted");
            assert!(
                stats.retained_log < bound,
                "replica {r} retained log {} >= {bound}",
                stats.retained_log
            );
            assert!(
                stats.prepared < bound,
                "replica {r} prepared {} >= {bound}",
                stats.prepared
            );
            assert!(
                stats.commit_votes < bound,
                "replica {r} commit votes {} >= {bound}",
                stats.commit_votes
            );
        }
        assert!(cluster.logs_are_consistent());
    }
}
