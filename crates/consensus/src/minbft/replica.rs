//! The honest replica: its state, and [`replica_on_message`], the one
//! transport-agnostic step function every driver (simulated, threaded,
//! socket) runs unchanged. The protocol's phases live beside it: ordering
//! in [`super::ordering`], view change in [`super::view_change`],
//! checkpoints and state transfer in [`super::checkpoint`], and time in
//! [`super::timers`].

use super::checkpoint::{
    begin_rebuild, handle_checkpoint, handle_state_request, handle_state_transfer,
};
use super::config::ProtocolParams;
use super::message::{
    ByzantineMode, CommitRecord, ControlMessage, Message, Request, ViewChangeVote,
};
use super::ordering::{
    execute_ready, handle_commit, handle_prepare, handle_request, handle_ui_resend_request,
    propose_pending,
};
use super::quorum::Votes;
use super::view_change::{apply_reconfiguration, handle_new_view, handle_view_change};
use crate::crypto::{combine, digest, Digest, KeyDirectory, KeyPair};
use crate::transport::{Outgoing, Transport};
use crate::usig::{UniqueIdentifier, Usig, UsigVerifier};
use crate::{NodeId, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

/// The requests a replica has sequenced or executed, as `(client, id)`: an
/// ordered set laid out per client, so a lookup on the request path
/// searches one client's ids, not every request executed since the last
/// checkpoint, and compaction cuts each client's executed prefix off in one
/// split.
#[derive(Default)]
pub(super) struct SeenRequests(BTreeMap<NodeId, BTreeSet<u64>>);

impl SeenRequests {
    pub(super) fn contains(&self, &(client, id): &(NodeId, u64)) -> bool {
        self.0.get(&client).is_some_and(|ids| ids.contains(&id))
    }

    pub(super) fn insert(&mut self, (client, id): (NodeId, u64)) {
        self.0.entry(client).or_default().insert(id);
    }

    pub(super) fn remove(&mut self, &(client, id): &(NodeId, u64)) {
        if let Some(ids) = self.0.get_mut(&client) {
            ids.remove(&id);
        }
    }

    /// Drops, per client, every id at or below `floor(client)`.
    pub(super) fn prune_through(&mut self, floor: impl Fn(NodeId) -> Option<u64>) {
        for (&client, ids) in &mut self.0 {
            if let Some(floor) = floor(client) {
                *ids = ids.split_off(&floor);
                ids.remove(&floor);
            }
        }
    }

    pub(super) fn len(&self) -> usize {
        self.0.values().map(BTreeSet::len).sum()
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
    pub(super) directory: KeyDirectory,
    /// The key-derivation seed (see [`KeyPair::derive`]), retained for the
    /// same reason.
    pub(super) seed: u64,
    /// Set by a [`ControlMessage::Reconfigure`] whose membership excludes
    /// this replica; the hosting event loop exits the replica thread.
    pub(crate) evicted: bool,
    /// Phase one of the message-driven rebuild (see
    /// [`ControlMessage::Recover`]): a state pull is outstanding, but the
    /// protocol state survives until a frontier-covering transfer arrives.
    pub(crate) pending_rebuild: bool,
    /// When this replica last broadcast a state pull (see [`super::timers`]).
    pub(super) last_state_pull: SimTime,
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
    pub(super) commit_votes: Votes<(u64, Digest)>,
    pub(super) pending: VecDeque<Request>,
    pub(super) seen_requests: SeenRequests,
    /// Requests this replica itself sequenced as leader, with their
    /// assigned sequence numbers. A proposal that never executes must be
    /// forgotten when the view changes — otherwise its `seen_requests`
    /// marker suppresses every future re-proposal and re-reply, and the
    /// client stalls forever.
    pub(super) proposed: BTreeMap<(NodeId, u64), u64>,
    /// Last executed request per client: `(request_id, value, sequence)`.
    /// Re-sent when a client retransmits an already-executed request (its
    /// original REPLY may have been lost) — without this cache a client can
    /// stall forever on a lossy network. Because clients issue request ids
    /// monotonically, this cache also provides the duplicate detection for
    /// executed requests whose `seen_requests` entries were compacted.
    pub(super) last_replies: BTreeMap<NodeId, (u64, u64, u64)>,
    pub(super) request_first_seen: BTreeMap<(NodeId, u64), SimTime>,
    /// Per proposed view: each voter's high-water mark, stable checkpoint
    /// and reported prepared certificates (see [`Message::ViewChange`]).
    pub(super) view_change_votes: Votes<u64, ViewChangeVote>,
    /// This replica's own checkpoint announcements:
    /// `sequence → (log_len, state digest)`. Pruned at compaction.
    pub(super) own_checkpoints: BTreeMap<u64, (u64, Digest)>,
    /// Checkpoint votes keyed by `(sequence, state digest)`, this replica's
    /// own announcements included. Pruned at compaction.
    pub(super) checkpoint_votes: Votes<(u64, Digest)>,
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
    /// The execution frontier the latest [`ControlMessage::Reconfigure`]
    /// carried: a state transfer below it is refused (see
    /// [`super::view_change::apply_reconfiguration`]).
    pub(super) epoch_frontier: u64,
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
    pub(super) ui_log: BTreeMap<u64, Message>,
    /// The digest-chain value at `log_start`: folding the retained
    /// `executed` suffix over it reproduces `log_chain`. Maintained through
    /// compaction so state transfers carry a verifiable chain.
    pub(super) chain_base: Digest,
}

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
            commit_votes: Votes::new(),
            pending: VecDeque::new(),
            seen_requests: SeenRequests::default(),
            proposed: BTreeMap::new(),
            last_replies: BTreeMap::new(),
            request_first_seen: BTreeMap::new(),
            view_change_votes: Votes::new(),
            own_checkpoints: BTreeMap::new(),
            checkpoint_votes: Votes::new(),
            needs_state: false,
            pending_rebuild: false,
            last_state_pull: f64::NEG_INFINITY,
            min_lead_view: 0,
            epoch: 0,
            epoch_frontier: 0,
            voted_view: 0,
            corrupt_execution: false,
            prepare_hook: None,
            ui_high: BTreeMap::new(),
            parked_prepares: BTreeMap::new(),
            ui_log: BTreeMap::new(),
            chain_base: digest(b"minbft-genesis"),
        }
    }

    /// A replica joining a running cluster that is at configuration epoch
    /// `epoch`: one epoch behind, so the JOIN's [`ControlMessage::Reconfigure`]
    /// is what moves it into the epoch and sends its first state pull, after
    /// every peer could have seen the reconfiguration.
    pub(crate) fn newcomer(
        id: NodeId,
        membership: Vec<NodeId>,
        directory: KeyDirectory,
        seed: u64,
        epoch: u64,
    ) -> Self {
        let mut replica = Replica::new(id, membership, directory, seed);
        replica.epoch = epoch - 1;
        replica.needs_state = true;
        replica
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

    /// Whether `request` is still to be sequenced: this replica has neither
    /// sequenced nor executed it, and it is newer than its client's last
    /// executed request (client request ids are monotonic).
    pub(super) fn unsequenced(&self, request: &Request) -> bool {
        !self.seen_requests.contains(&(request.client, request.id))
            && (self.last_replies.get(&request.client))
                .is_none_or(|&(last_id, _, _)| request.id > last_id)
    }

    /// Drops from `pending` every request that is no longer
    /// [`Replica::unsequenced`]: it executed, was sequenced, or is older
    /// than its client's last executed request.
    pub(super) fn prune_pending(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|r| self.unsequenced(r));
        self.pending = pending;
    }

    /// Whether the replica still participates in its current view (it has
    /// not voted to abandon it).
    pub(super) fn in_current_view(&self) -> bool {
        self.voted_view <= self.view
    }

    pub(super) fn leader(&self) -> NodeId {
        self.membership[(self.view as usize) % self.membership.len()]
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.id
    }

    /// Absolute number of executed requests (compacted prefix included).
    pub(crate) fn executed_len(&self) -> u64 {
        self.log_start + self.executed.len() as u64
    }

    pub(super) fn state_digest(&self) -> Digest {
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
        Message::Request(request) => handle_request(replica, request, time, params, out),
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
        } => handle_commit(
            replica,
            from,
            view,
            sequence,
            batch_digest,
            ui,
            params,
            out,
            trace,
        ),
        Message::UiResendRequest { from_counter } => {
            handle_ui_resend_request(replica, from, from_counter, out);
        }
        Message::Checkpoint {
            sequence,
            state_digest,
            ..
        } => handle_checkpoint(replica, from, sequence, state_digest),
        Message::ViewChange {
            epoch,
            new_view,
            high_sequence,
            stable_sequence,
            prepared,
        } => {
            let vote = (high_sequence, stable_sequence, prepared);
            handle_view_change(replica, from, epoch, new_view, vote, time, params, out);
        }
        Message::NewView {
            epoch,
            view,
            membership,
            next_sequence,
        } => handle_new_view(replica, epoch, view, membership, next_sequence),
        Message::StateRequest { epoch } => handle_state_request(replica, from, epoch, out),
        transfer @ Message::StateTransfer { .. } => handle_state_transfer(replica, transfer),
        Message::Control(ControlMessage::Recover) => begin_rebuild(replica, time, out),
        Message::Control(ControlMessage::Reconfigure {
            epoch,
            membership,
            frontier,
        }) => {
            if epoch > replica.epoch {
                apply_reconfiguration(replica, epoch, membership, frontier, time, out);
            }
        }
        Message::Control(ControlMessage::Compromise { mode }) => replica.byzantine = mode,
        Message::Reply { .. } => {}
    }
    // Deliveries are what re-open a closed pipeline window (commits advance
    // `last_executed` through `execute_ready`) and end a state wait, so a
    // leader drains its parked backlog here instead of waiting for a timer.
    // No-op when the window is still closed, the backlog is short of a full
    // batch (the stale-batch timer covers partials), or this replica does
    // not lead.
    propose_pending(replica, params, false, out);
}
