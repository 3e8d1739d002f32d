//! The honest replica: its state, and the transport-agnostic step
//! functions every driver (simulated, threaded, socket) runs unchanged.

use super::config::ProtocolParams;
use super::message::{
    batch_digest, ByzantineMode, CommitRecord, ControlMessage, Message, Operation,
    PreparedCertificate, Request, ViewChangeVote,
};
use crate::crypto::{combine, digest, Digest, KeyDirectory, KeyPair};
use crate::transport::{Outgoing, Transport};
use crate::usig::{UniqueIdentifier, Usig, UsigVerifier};
use crate::{NodeId, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Whether the leader's proposal window is open: with pipelining enabled
/// (`pipeline_window > 0`) at most `pipeline_window` sequences may be
/// proposed beyond the execution frontier. In-flight count is
/// `next_sequence - 1 - last_executed`, so the window is open while
/// `next_sequence <= last_executed + W`. Always open when the knob is 0
/// (the legacy unbounded pipeline).
pub(super) fn window_open(replica: &Replica, params: &ProtocolParams) -> bool {
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
    pub(crate) fn is_empty(&self) -> bool {
        self.outgoing.is_empty() && self.broadcast.is_empty()
    }

    /// The step's traffic as batch entries: its broadcasts, then its
    /// unicasts.
    pub(crate) fn into_batch(self, from: NodeId) -> impl Iterator<Item = Outgoing<Message>> {
        let broadcasts = self.broadcast.into_iter();
        let unicasts = self.outgoing.into_iter();
        broadcasts
            .map(move |m| Outgoing::Broadcast(from, m))
            .chain(unicasts.map(move |(to, m)| Outgoing::Unicast(from, to, m)))
    }

    /// Sends the step's traffic through a transport as one batch.
    pub(crate) fn flush<T: Transport<Message>>(
        self,
        transport: &mut T,
        from: NodeId,
        members: &[NodeId],
    ) {
        if !self.is_empty() {
            transport.send_batch(members, self.into_batch(from).collect());
        }
    }
}

/// See [`Replica::prepare_hook`]: `(replica, sequence, prepare, out)`.
pub(super) type PrepareHook = fn(&mut Replica, u64, Message, &mut StepOutput);

/// One MinBFT replica: the transport-agnostic protocol state machine.
pub(crate) struct Replica {
    pub(crate) id: NodeId,
    pub(super) usig: Usig,
    pub(super) verifier: UsigVerifier,
    /// The replica's copy of the public-key directory, retained so the
    /// `Recover`/`Reconfigure` control commands can rebuild the verifier
    /// (and register the derived keys of newly joined members) locally.
    directory: KeyDirectory,
    /// The key-derivation seed (see [`KeyPair::derive`]), retained for the
    /// same reason.
    seed: u64,
    /// Set by a [`ControlMessage::Reconfigure`] whose membership excludes
    /// this replica; the hosting event loop exits the replica thread.
    pub(crate) evicted: bool,
    /// Phase one of the message-driven rebuild (see
    /// [`ControlMessage::Recover`]): a state pull is outstanding, but the
    /// protocol state survives until a frontier-covering transfer arrives.
    pub(crate) pending_rebuild: bool,
    /// When this replica last broadcast a state pull (see [`retry_state_pull`]).
    last_state_pull: SimTime,
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
    pub(super) prepared: BTreeMap<u64, (u64, Vec<Request>)>,
    /// Commit votes keyed by `(sequence, batch digest)`, so votes arriving
    /// before the corresponding PREPARE are not lost. Pruned below the
    /// stable checkpoint.
    pub(super) commit_votes: HashMap<(u64, Digest), BTreeSet<NodeId>>,
    pub(super) pending: VecDeque<Request>,
    pub(super) seen_requests: HashSet<(NodeId, u64)>,
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
    pub(super) request_first_seen: HashMap<(NodeId, u64), SimTime>,
    /// Per proposed view: each voter's high-water mark, stable checkpoint
    /// and reported prepared certificates (see [`Message::ViewChange`]).
    pub(super) view_change_votes: HashMap<u64, HashMap<NodeId, ViewChangeVote>>,
    /// This replica's own checkpoint announcements:
    /// `sequence → (log_len, state digest)`. Pruned at compaction.
    pub(super) own_checkpoints: BTreeMap<u64, (u64, Digest)>,
    /// Checkpoint votes from other replicas:
    /// `sequence → digest → voters`. Pruned at compaction.
    pub(super) checkpoint_votes: BTreeMap<u64, HashMap<Digest, HashSet<NodeId>>>,
    pub(crate) needs_state: bool,
    /// The lowest view this replica may lead. Raised past the current view
    /// when the replica is recovered: a freshly recovered replica must not
    /// resume proposing under its old leadership (its adopted state may lag
    /// the true frontier and it would re-assign executed sequence numbers);
    /// it may only lead a view acquired through a view-change quorum, whose
    /// high-water marks bound the frontier.
    pub(super) min_lead_view: u64,
    /// The configuration epoch (bumped by every JOIN/EVICT).
    pub(crate) epoch: u64,
    /// The highest view this replica has broadcast a view-change vote for.
    /// After voting, the replica abandons its current view — it neither
    /// proposes nor accepts PREPAREs/COMMITs until a view ≥ `voted_view` is
    /// installed. Without this, a commit quorum for one request and a
    /// view-change quorum electing a leader that re-assigns the same
    /// sequence number can both complete (split-brain across views).
    pub(super) voted_view: u64,
    /// Test-only fault injection: when set, the replica executes a corrupted
    /// digest for every request (simulating an implementation bug that makes
    /// the replica diverge while still claiming to follow the protocol).
    pub(super) corrupt_execution: bool,
    /// Replaces the plain broadcast of a freshly certified PREPARE in
    /// `propose_batch`. `None` on every live node; only the simulated
    /// cluster's fault injection assigns it, because a second certificate
    /// for the same sequence must take the USIG counter directly after the
    /// honest one and one step can propose several batches.
    pub(super) prepare_hook: Option<PrepareHook>,
    /// Per-sender FIFO cursor: the highest USIG counter seen from each peer
    /// under a *valid* certificate. PREPAREs are only accepted
    /// counter-consecutively against this cursor — the defense that stops
    /// an equivocating leader from serving disjoint halves of the cluster
    /// conflicting proposals on disjoint counter ranges (gap-tolerant
    /// acceptance alone admits two disjoint commit quorums that share only
    /// the leader).
    pub(super) ui_high: BTreeMap<NodeId, u64>,
    /// PREPAREs from the current leader that arrived above the FIFO cursor,
    /// keyed by counter: `(view, sequence, requests, ui)`. Drained in
    /// counter order as the cursor advances; cleared on view install
    /// (a new view means a new leader stream). Bounded.
    pub(super) parked_prepares: BTreeMap<u64, (u64, u64, Vec<Request>, UniqueIdentifier)>,
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
            pending_rebuild: false,
            last_state_pull: f64::NEG_INFINITY,
            min_lead_view: 0,
            epoch: 0,
            voted_view: 0,
            corrupt_execution: false,
            prepare_hook: None,
            ui_high: BTreeMap::new(),
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

    /// Phase two of a [`ControlMessage::Recover`]: wipe the protocol state
    /// in place (log and certificates) while keeping identity, membership,
    /// epoch, view and the USIG, then adopt the transfer that triggered it.
    fn reset_for_recovery(&mut self) {
        let mut fresh = Replica::new(
            self.id,
            self.membership.clone(),
            self.directory.clone(),
            self.seed,
        );
        fresh.view = self.view;
        fresh.epoch = self.epoch;
        fresh.needs_state = true;
        // The USIG is the tamperproof component: its monotonic counter
        // survives recovery, so peers keep accepting certificates without
        // any counter-reset coordination. The retained UI message log
        // rides along: peers may still ask for pre-recovery counters.
        std::mem::swap(&mut fresh.usig, &mut self.usig);
        std::mem::swap(&mut fresh.ui_log, &mut self.ui_log);
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
    fn apply_reconfiguration(
        &mut self,
        epoch: u64,
        membership: Vec<NodeId>,
        now: SimTime,
        out: &mut StepOutput,
    ) {
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
        if self.awaits_state() {
            // A newcomer (or a replica mid-recovery/mid-rebuild) re-pulls
            // state in the new epoch; its old-epoch StateRequest is void
            // now.
            pull_state(self, now, out);
        }
        if !self.needs_state && self.byzantine != ByzantineMode::Silent {
            self.voted_view = self.voted_view.max(self.view + 1);
            out.broadcast.push(view_change_vote(self, self.view + 1));
        }
    }

    pub(super) fn may_lead(&self) -> bool {
        self.is_leader()
            && !self.awaits_state()
            && self.view >= self.min_lead_view
            && self.view >= self.voted_view
    }

    /// Whether a state pull is outstanding: the replica has no state, or a
    /// rebuild is pending. Either way it makes no new promise (no proposal,
    /// no COMMIT vote) — the wipe would forget it, and a rebuilding leader
    /// would drop its own in-flight PREPAREs. What a rebuilding replica
    /// holds stays reachable: it answers state pulls and reports its
    /// certificates in view-change votes.
    pub(crate) fn awaits_state(&self) -> bool {
        self.needs_state || self.pending_rebuild
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
pub(super) fn replica_high_sequence(replica: &Replica) -> u64 {
    let prepared_max = replica.prepared.keys().next_back().copied().unwrap_or(0);
    replica.last_executed.max(prepared_max)
}

/// The vote `replica` casts for `new_view` (see [`Message::ViewChange`]).
pub(super) fn view_change_vote(replica: &Replica, new_view: u64) -> Message {
    Message::ViewChange {
        epoch: replica.epoch,
        new_view,
        high_sequence: replica_high_sequence(replica),
        stable_sequence: replica.stable_sequence,
        prepared: prepared_report(replica),
    }
}

/// The certificate transfer a replica attaches to a view-change vote: all
/// its retained prepared entries. Entries the voter has itself executed are
/// included too — a new leader that lags behind the voter needs exactly
/// those to re-propose the executed batches at their original sequence
/// numbers instead of no-op-filling them. (Entries below the stable
/// checkpoint are compacted; a leader that would need them is barred from
/// leading and re-acquires state by transfer instead.)
pub(super) fn prepared_report(replica: &Replica) -> Vec<PreparedCertificate> {
    replica
        .prepared
        .iter()
        .map(|(&sequence, (view, batch))| (sequence, *view, batch.clone()))
        .collect()
}

/// The state-transfer message a donor builds from its current state (shared
/// by the simulated cluster's JOIN / laggard-barrier push and the pull-based
/// [`Message::StateRequest`] path).
pub(super) fn state_transfer_message(replica: &Replica) -> Message {
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
        ui_high: replica.ui_high.iter().map(|(&n, &c)| (n, c)).collect(),
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
    let prepare = certify_prepare(replica, sequence, requests, out);
    match replica.prepare_hook {
        Some(hook) => hook(replica, sequence, prepare, out),
        None => out.broadcast.push(prepare),
    }
}

/// Certifies `requests` at `sequence` in the replica's current view with one
/// USIG signature, records the certificate and the leader's own commit vote,
/// and returns the PREPARE to send.
fn certify_prepare(
    replica: &mut Replica,
    sequence: u64,
    requests: Vec<Request>,
    out: &mut StepOutput,
) -> Message {
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
    prepare
}

/// Records one of the replica's own UI-certified messages for gap repair
/// (see [`Message::UiResendRequest`]), bounding the retained log.
pub(super) fn record_ui_message(replica: &mut Replica, counter: u64, message: Message) {
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
    Some(view_change_vote(replica, new_view))
}

/// Seconds between re-announcements of an outstanding state pull, on every
/// plane: the `StateRequest` rides the droppable data plane, and one lost
/// broadcast must not strand the recovery.
const STATE_PULL_RETRY: f64 = 0.05;

/// Broadcasts a state pull and restarts its re-announcement timer.
fn pull_state(replica: &mut Replica, now: SimTime, out: &mut StepOutput) {
    replica.last_state_pull = now;
    out.broadcast.push(Message::StateRequest {
        epoch: replica.epoch,
    });
}

/// When [`retry_state_pull`] next fires, in the canonical `last + retry`
/// form (`None`: no pull outstanding, or the answer could not be received).
pub(crate) fn state_pull_deadline(replica: &Replica) -> Option<SimTime> {
    let pulling =
        replica.awaits_state() && !replica.crashed && replica.byzantine != ByzantineMode::Silent;
    pulling.then_some(replica.last_state_pull + STATE_PULL_RETRY)
}

/// Re-announces an outstanding state pull once its retry interval has
/// passed. Called by the simulated cluster's timeout sweep and by *every*
/// iteration of the threaded replica loop — a busy mailbox (the exact
/// condition that drops broadcasts) would starve an idle-only retry.
pub(crate) fn retry_state_pull(replica: &mut Replica, now: SimTime, out: &mut StepOutput) {
    if state_pull_deadline(replica).is_some_and(|due| now >= due) {
        pull_state(replica, now, out);
    }
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
    // Nor may one that is about to wipe (see `Replica::awaits_state`).
    if replica.awaits_state() {
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
        if replica.awaits_state() || !replica.in_current_view() {
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
        let Some((_, batch)) = replica.prepared.get(&next) else {
            break;
        };
        let quorum_met = replica
            .commit_votes
            .get(&(next, batch_digest(batch)))
            .is_some_and(|votes| votes.len() >= params.commit_quorum(replica.membership.len()));
        if !quorum_met {
            break;
        }
        // Cloned only once it executes: most COMMITs arrive short of a quorum.
        let batch = batch.clone();
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
                    out.broadcast.push(view_change_vote(replica, new_view));
                    // Compacted history is only reachable through state
                    // transfer: a replica whose execution frontier lies
                    // below the quorum's stable checkpoint cannot replay the
                    // missing batches from certificates (their holders
                    // pruned them), so it re-acquires state by pull instead
                    // of executing a gap-filled (and diverging) log.
                    if replica.last_executed < quorum_stable {
                        replica.needs_state = true;
                        pull_state(replica, time, out);
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
                            // Mark the requests as sequenced so the backlog
                            // below does not re-propose them at a second
                            // sequence number.
                            for request in &batch {
                                let key = (request.client, request.id);
                                replica.seen_requests.insert(key);
                                replica.proposed.insert(key, sequence);
                            }
                            let refill = certify_prepare(replica, sequence, batch, out);
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
                out.outgoing.push((from, state_transfer_message(replica)));
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
            // in which the state is gone without a replacement. A transfer
            // below the frontier is refused: adopting it would roll the
            // replica back past sequences it executed, and if it was their
            // unique live holder the next gap-filling view change would
            // re-assign them.
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
            {
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
                pull_state(replica, time, out);
            }
            ControlMessage::Reconfigure { epoch, membership } => {
                if epoch > replica.epoch {
                    replica.apply_reconfiguration(epoch, membership, time, out);
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
