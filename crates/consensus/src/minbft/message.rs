//! What travels between MinBFT nodes: operations, requests, the protocol
//! [`Message`] and the control-plane commands. The wire codec derives its
//! frame format from these types.

use crate::crypto::{combine, digest, Digest};
use crate::usig::UniqueIdentifier;
use crate::NodeId;

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

/// Client node identifiers start here to keep them disjoint from replicas.
/// Public because out-of-process clients (the `minbft-node` orchestrator)
/// must register the same identities the in-process drivers use.
pub const CLIENT_ID_BASE: NodeId = 10_000;

impl Request {
    /// The digest binding the client, request id and operation. Public so
    /// invariant oracles (e.g. the validity check of the fault-injection
    /// harness) can match committed digests against submitted requests.
    pub fn digest(&self) -> Digest {
        // On the stack: client, id, a tag and at most 8 + 4 + 8 operand bytes.
        let mut bytes = [0u8; 33];
        let mut len = 0;
        let mut put = |field: &[u8]| {
            bytes[len..len + field.len()].copy_from_slice(field);
            len += field.len();
        };
        put(&self.client.to_le_bytes());
        put(&self.id.to_le_bytes());
        match self.operation {
            Operation::Read => put(&[0]),
            Operation::Write(v) => {
                put(&[1]);
                put(&v.to_le_bytes());
            }
            Operation::Put { key, value } => {
                put(&[2]);
                put(&key.to_le_bytes());
                put(&value.to_le_bytes());
            }
            Operation::Get { key } => {
                put(&[3]);
                put(&key.to_le_bytes());
            }
            Operation::TxReserve { tx, key, value } => {
                put(&[4]);
                put(&tx.to_le_bytes());
                put(&key.to_le_bytes());
                put(&value.to_le_bytes());
            }
            Operation::TxCommit { tx, key } => {
                put(&[5]);
                put(&tx.to_le_bytes());
                put(&key.to_le_bytes());
            }
            Operation::TxAbort { tx, key } => {
                put(&[6]);
                put(&tx.to_le_bytes());
                put(&key.to_le_bytes());
            }
        }
        digest(&bytes[..len])
    }
}

/// Where the [`batch_digest`] chain starts (and the empty batch's digest).
const BATCH_DIGEST_SEED: Digest = digest(b"minbft-batch");

/// The digest a USIG certificate binds for a batched PREPARE: a chain over
/// the batch's request digests. The empty batch (a gap-filling no-op) has a
/// fixed digest, so competing leaders fill the same gap identically.
pub fn batch_digest(requests: &[Request]) -> Digest {
    let mut acc = BATCH_DIGEST_SEED;
    for request in requests {
        acc = combine(acc, request.digest());
    }
    acc
}

/// The first absolute log position at which two compaction-truncated
/// executed logs disagree, comparing only the window both retain (each log
/// is `(absolute offset of its first entry, retained suffix)`). `None`
/// means the overlap — possibly empty — is identical. The single
/// offset-aware comparison shared by [`super::MinBftCluster::logs_are_consistent`],
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
pub(crate) type PreparedCertificate = (u64, u64, Vec<Request>);

/// One voter's contribution to a view-change ballot:
/// `(high_sequence, stable_sequence, prepared certificates)`.
pub(super) type ViewChangeVote = (u64, u64, Vec<PreparedCertificate>);

/// Control-plane commands carried over the same [`crate::transport::Transport`] as protocol
/// traffic, so the two-level feedback controllers can actuate a *running*
/// cluster without a central coordinator. Every plane recovers a replica
/// by delivering [`ControlMessage::Recover`] (the simulated
/// [`super::MinBftCluster::recover_replica`] included); reconfiguration
/// is delivered as a message by the threaded service
/// ([`crate::threaded::ThreadedCluster`]) only — the simulated cluster's
/// `add_replica` / `evict_replica` still apply it by direct method calls.
///
/// In the paper's architecture these commands travel on the trusted
/// control channel between a node's privileged domain and its replica
/// (Section IV), which is why a Silent/compromised replica still processes
/// them: recovery must reach a replica precisely when it misbehaves.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ControlMessage {
    /// Node controller → its replica: rebuild the replica. The rebuild is
    /// **two-phase**: the replica first marks itself `pending_rebuild` and
    /// pulls state ([`Message::StateRequest`]) while it keeps serving what
    /// it holds (state transfers, view-change certificate reports,
    /// executions its certificates cover) but makes no new promise — it
    /// neither proposes nor votes COMMIT, because the wipe would forget
    /// it; only when a transfer at or beyond its own execution
    /// frontier arrives does it wipe its protocol state and adopt the
    /// transfer in the same step. Wiping eagerly would erase the cluster's
    /// only copy of the committed suffix whenever the target is the unique
    /// live frontier holder (an agreement violation the 300-run controlled
    /// chaos sweep found, seed 194). The tamperproof USIG survives the
    /// rebuild — its monotonic counter is exactly the state MinBFT's
    /// trusted component preserves across recoveries — so peers need no
    /// counter-reset coordination.
    Recover,
    /// System controller → every replica: install a new configuration
    /// epoch/membership (the JOIN/EVICT reconfiguration, on every plane).
    /// Replicas bar themselves from leading their current view; a replica
    /// that has executed up to `frontier` votes the new epoch's first view
    /// change, one below it pulls state first and adopts only a transfer
    /// that reaches `frontier`, and a replica absent from the new membership
    /// marks itself evicted.
    Reconfigure {
        /// The new configuration epoch (must exceed the replica's).
        epoch: u64,
        /// The new membership.
        membership: Vec<NodeId>,
        /// The execution frontier of the old configuration: the highest
        /// `last_executed` of any live member not awaiting state. No voter
        /// of the new epoch may lag it, so no ballot of laggards can
        /// gap-fill a sequence the old configuration committed.
        frontier: u64,
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
    /// FIFO cursor (see `Replica::ui_high`): the gap is either reordering
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
    /// never routes `Control` over `crate::net::SimNetwork`, whose dispatch gate
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_batch_digest_seed_is_the_runtime_digest_of_its_tag() {
        let tag: &[u8] = std::hint::black_box(b"minbft-batch");
        assert_eq!(BATCH_DIGEST_SEED, digest(tag));
        assert_eq!(batch_digest(&[]), digest(tag));
    }
}
