//! Checkpoints and state transfer: the periodic state-digest announcements
//! whose quorum compacts the log, the transfer a donor builds from its
//! state, and the two-phase rebuild of [`ControlMessage::Recover`] that
//! adopts one.
//!
//! [`ControlMessage::Recover`]: super::message::ControlMessage::Recover

use super::config::ProtocolParams;
use super::message::{ByzantineMode, Message};
use super::ordering::note_ui_counter;
use super::replica::{Replica, StepOutput};
use super::timers::pull_state;
use super::view_change::prepared_report;
use crate::crypto::{combine, Digest};
use crate::{NodeId, SimTime};

/// Compacts the log at a stable checkpoint: truncates the executed prefix
/// below `log_len` and prunes every sequence-indexed structure at or below
/// `sequence`. Bounds the replica's memory while state transfer keeps
/// compacted history reachable.
fn compact_to(replica: &mut Replica, sequence: u64, log_len: u64) {
    if sequence <= replica.stable_sequence || sequence > replica.last_executed {
        return;
    }
    if log_len < replica.log_start || log_len > replica.executed_len() {
        return;
    }
    // The compacted prefix folds into the chain base, keeping the invariant
    // `fold(chain_base, executed) == log_chain` that state transfers are
    // verified against.
    let dropped = (replica.executed).drain(..(log_len - replica.log_start) as usize);
    replica.chain_base = dropped.fold(replica.chain_base, combine);
    replica.log_start = log_len;
    replica.stable_sequence = sequence;
    prune_through(replica, sequence);
    // Executed-duplicate detection moves from `seen_requests` to the
    // per-client reply cache (ids are monotonic per client).
    let replies = &replica.last_replies;
    (replica.seen_requests).prune_through(|client| replies.get(&client).map(|reply| reply.0));
}

/// Drops the prepared certificates, the votes and the own announcements at
/// or below `sequence`.
fn prune_through(replica: &mut Replica, sequence: u64) {
    replica.prepared.retain(|&s, _| s > sequence);
    replica.commit_votes.prune_through((sequence, Digest::MAX));
    replica.own_checkpoints.retain(|&s, _| s > sequence);
    (replica.checkpoint_votes).prune_through((sequence, Digest::MAX));
}

/// Stabilizes the checkpoint at `sequence` once the
/// [`ProtocolParams::checkpoint_quorum`] of the replica's membership
/// announced its own state digest for it.
fn try_stabilize(replica: &mut Replica, sequence: u64) {
    let Some(&(log_len, own_digest)) = replica.own_checkpoints.get(&sequence) else {
        return;
    };
    let quorum = ProtocolParams::checkpoint_quorum(replica.membership.len());
    if replica.checkpoint_votes.count((sequence, own_digest)) >= quorum {
        compact_to(replica, sequence, log_len);
    }
}

/// Announces the replica's state digest at the checkpoint `sequence` it
/// just executed, counting its own announcement as a vote.
pub(super) fn announce_checkpoint(replica: &mut Replica, sequence: u64, out: &mut StepOutput) {
    let state_digest = replica.state_digest();
    let log_len = replica.executed_len();
    replica
        .own_checkpoints
        .insert(sequence, (log_len, state_digest));
    let own = replica.id;
    (replica.checkpoint_votes).cast((sequence, state_digest), own, ());
    out.broadcast.push(Message::Checkpoint {
        sequence,
        log_len,
        state_digest,
    });
    // Votes may already have arrived from faster replicas.
    try_stabilize(replica, sequence);
}

/// Counts a peer's checkpoint announcement. Only the *own* log length
/// matters for truncation; a vote's digest either matches this replica's
/// state at the sequence or it does not count.
pub(super) fn handle_checkpoint(
    replica: &mut Replica,
    from: NodeId,
    sequence: u64,
    state_digest: Digest,
) {
    if sequence > replica.stable_sequence {
        (replica.checkpoint_votes).cast((sequence, state_digest), from, ());
        try_stabilize(replica, sequence);
    }
}

/// The state-transfer message a donor builds from its current state.
fn state_transfer_message(replica: &Replica) -> Message {
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
        replies: (replica.last_replies.iter())
            .map(|(&client, &(id, value, sequence))| (client, id, value, sequence))
            .collect(),
        prepared: prepared_report(replica),
        chain_base: replica.chain_base,
        ui_high: replica.ui_high.iter().map(|(&n, &c)| (n, c)).collect(),
    }
}

/// Pull-based transfer for lagging replicas; amnesia must not spread, so
/// only replicas that hold state donate.
pub(super) fn handle_state_request(
    replica: &Replica,
    from: NodeId,
    epoch: u64,
    out: &mut StepOutput,
) {
    if epoch == replica.epoch && !replica.needs_state {
        out.outgoing.push((from, state_transfer_message(replica)));
    }
}

/// Phase one of the rebuild: the privileged domain seizes the replica (the
/// injected misbehaviour ends here — a Silent replica must resume
/// receiving, or the transfer that completes the rebuild would itself be
/// dropped) and requests state while keeping the current state and
/// certificates alive. The wipe happens atomically with adoption in
/// [`handle_state_transfer`].
pub(super) fn begin_rebuild(replica: &mut Replica, now: SimTime, out: &mut StepOutput) {
    replica.byzantine = ByzantineMode::Correct;
    replica.pending_rebuild = true;
    pull_state(replica, now, out);
}

/// Phase two of the rebuild: wipe the protocol state in place (log, votes,
/// replies) while keeping identity, membership, epoch, view, the USIG and
/// the prepared certificates, then adopt the transfer that triggered it.
///
/// The certificates survive because the donor may lag: a replica that voted
/// COMMIT at a sequence the donor has not reached is, after the rebuild,
/// still one of the voters every view-change ballot intersects. Wiping them
/// would let rebuilds on consecutive control ticks erase every copy of a
/// committed but not yet universal sequence — more amnesiacs than the
/// `PARALLEL_RECOVERIES` slack of [`ProtocolParams::commit_quorum`]
/// covers.
///
/// Keeping them is sound under the adversary model, not by the USIG: an
/// entry stores no UI and nothing re-checks it (the view change and the
/// refill trust what a voter reports), so it is only as clean as the
/// replica's memory. The simulator's intrusions corrupt outgoing payloads
/// alone (`adversary::corrupt`), which leaves `prepared` as the honest core
/// wrote it. An intrusion that rewrites memory — possible on the live
/// planes — would carry its entries through the recovery meant to clean
/// the replica.
fn reset_for_recovery(replica: &mut Replica) {
    let mut fresh = Replica::new(
        replica.id,
        replica.membership.clone(),
        replica.directory.clone(),
        replica.seed,
    );
    fresh.view = replica.view;
    fresh.epoch = replica.epoch;
    fresh.needs_state = true;
    // The USIG is the tamperproof component: its monotonic counter survives
    // recovery, so peers keep accepting certificates without any
    // counter-reset coordination. The retained UI message log rides along:
    // peers may still ask for pre-recovery counters.
    std::mem::swap(&mut fresh.usig, &mut replica.usig);
    std::mem::swap(&mut fresh.ui_log, &mut replica.ui_log);
    std::mem::swap(&mut fresh.prepared, &mut replica.prepared);
    *replica = fresh;
}

/// Adopts a [`Message::StateTransfer`] that covers the replica's frontier,
/// if the replica awaits state (or completes a rebuild with it).
pub(super) fn handle_state_transfer(replica: &mut Replica, transfer: Message) {
    let Message::StateTransfer {
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
    } = transfer
    else {
        return;
    };
    // The frontier must be internally consistent before anything is
    // adopted: folding the retained suffix over the chain base must
    // reproduce the advertised chain, the suffix length must match the
    // advertised frontier, and the stable checkpoint cannot exceed it. A
    // lying donor that inflates its frontier or fabricates digests fails
    // here and donates nothing.
    let folded = executed
        .iter()
        .fold(chain_base, |chain, &entry| combine(chain, entry));
    if folded != log_chain || stable_sequence > last_executed {
        return;
    }
    if epoch != replica.epoch || last_executed < replica.last_executed.max(replica.epoch_frontier) {
        return;
    }
    // Phase two of a message-driven rebuild: the first transfer covering
    // the replica's own frontier triggers the wipe, and the very same
    // transfer is adopted below — there is no window in which the state is
    // gone without a replacement. A transfer below the frontier is refused
    // (above): adopting it would roll the replica back past sequences it
    // executed, and if it was their unique live holder the next gap-filling
    // view change would re-assign them. So is one below the frontier of the
    // epoch's reconfiguration: a newcomer or laggard that adopted another
    // laggard's state would vote in a ballot of laggards (see
    // `apply_reconfiguration`).
    if replica.pending_rebuild && !replica.needs_state {
        reset_for_recovery(replica);
    }
    if !replica.needs_state {
        return;
    }
    replica.pending_rebuild = false;
    for (sequence, cert_view, batch) in prepared {
        if (replica.prepared.get(&sequence)).is_none_or(|&(v, _)| v < cert_view) {
            replica.prepared.insert(sequence, (cert_view, batch));
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
    // Adopt the donor's FIFO cursors (keeping own where it is ahead): a
    // recovered verifier has no counter history, and without a baseline
    // every post-recovery PREPARE would park behind an unfillable gap.
    for (node, counter) in ui_high {
        note_ui_counter(replica, node, counter);
    }
    replica.parked_prepares.clear();
    replica.view = view.max(replica.view);
    // Adopting the donor's (possibly much higher) view must not re-open
    // leadership: a recovered replica may only lead a view acquired through
    // a view-change quorum, whose ballots bound its sequence counter.
    replica.min_lead_view = replica.min_lead_view.max(replica.view + 1);
    replica.membership = membership;
    replica.next_sequence = replica.last_executed + 1;
    // Anything below the adopted stable checkpoint is compacted history on
    // the donor too.
    prune_through(replica, stable_sequence);
    replica.own_checkpoints.clear();
    for (client, request_id, reply_value, sequence) in replies {
        replica
            .last_replies
            .insert(client, (request_id, reply_value, sequence));
        replica.seen_requests.insert((client, request_id));
    }
    // Requests parked while this replica lagged may have executed inside the
    // adopted history; the transfer's reply cache only names each client's
    // *last* request, so prune the backlog by the monotonic-id rule too — a
    // stale entry that survives here would be re-proposed (and re-executed)
    // the next time this replica leads.
    replica.prune_pending();
    replica.needs_state = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyDirectory;
    use crate::minbft::message::ControlMessage;
    use crate::minbft::replica::replica_on_message;
    use crate::threaded::CONTROL_PLANE_ID;

    const PARAMS: ProtocolParams = ProtocolParams {
        checkpoint_period: 1,
        batch_size: 1,
        batch_delay: 0.0,
        pipeline_window: 0,
    };

    /// Replica 0 of `members`, having executed sequence 1.
    fn executed_one(members: Vec<NodeId>) -> Replica {
        let mut replica = Replica::new(0, members, KeyDirectory::new(), 7);
        replica.last_executed = 1;
        replica
    }

    /// Announces the checkpoint at sequence 1 and returns its digest.
    fn announce(replica: &mut Replica) -> Digest {
        let mut out = StepOutput::default();
        announce_checkpoint(replica, 1, &mut out);
        match out.broadcast.as_slice() {
            [Message::Checkpoint { state_digest, .. }] => *state_digest,
            other => panic!("not one checkpoint: {other:?}"),
        }
    }

    /// Delivers `message` from `from` to `replica` through the step function.
    fn step(replica: &mut Replica, from: NodeId, message: Message) {
        let (mut out, mut trace) = (StepOutput::default(), Vec::new());
        replica_on_message(replica, from, message, 0.0, &PARAMS, &mut trace, &mut out);
    }

    #[test]
    fn a_checkpoint_stabilizes_on_its_own_digest_plus_f_matching_votes() {
        // Five members: f = 2, a quorum of three (the replica's own
        // announcement and two matching votes).
        let mut replica = executed_one(vec![0, 1, 2, 3, 4]);
        assert_eq!(ProtocolParams::checkpoint_quorum(5), 3);
        let own = announce(&mut replica);
        let other = Digest(own.0 ^ 1);
        // Three announcements, split across two digests: no quorum.
        handle_checkpoint(&mut replica, 1, 1, own);
        handle_checkpoint(&mut replica, 2, 1, other);
        handle_checkpoint(&mut replica, 2, 1, other);
        assert_eq!(replica.checkpoint_votes.count((1, own)), 2);
        assert_eq!(replica.stable_sequence, 0);
        // The f-th matching vote stabilizes it and prunes the votes.
        handle_checkpoint(&mut replica, 3, 1, own);
        assert_eq!(replica.stable_sequence, 1);
        assert_eq!(replica.checkpoint_votes.len(), 0);
    }

    #[test]
    fn a_joined_replica_stabilizes_on_the_quorum_of_its_new_membership() {
        // Spawned into four members (a quorum of two), then a JOIN makes
        // them five (a quorum of three).
        let mut replica = executed_one(vec![0, 1, 2, 3]);
        assert_eq!(ProtocolParams::checkpoint_quorum(4), 2);
        let join = ControlMessage::Reconfigure {
            epoch: 1,
            membership: vec![0, 1, 2, 3, 4],
            frontier: 1,
        };
        step(&mut replica, CONTROL_PLANE_ID, Message::Control(join));
        assert_eq!(replica.membership.len(), 5);
        let own = announce(&mut replica);
        let vote = Message::Checkpoint {
            sequence: 1,
            log_len: replica.executed_len(),
            state_digest: own,
        };
        step(&mut replica, 1, vote.clone());
        assert_eq!(replica.stable_sequence, 0, "two of five are no quorum");
        step(&mut replica, 4, vote);
        assert_eq!(replica.stable_sequence, 1);
    }

    #[test]
    fn a_pulling_replica_adopts_only_a_transfer_that_reaches_the_frontier() {
        use super::super::view_change::apply_reconfiguration;
        let members = vec![0, 1, 2, 3, 4];
        let mut newcomer = Replica::newcomer(4, members.clone(), KeyDirectory::new(), 7, 1);
        // The JOIN: epoch 1, at whose start the members had executed 5.
        let mut out = StepOutput::default();
        apply_reconfiguration(&mut newcomer, 1, members.clone(), 5, 0.0, &mut out);
        let transfer = |last_executed| {
            let mut donor = Replica::new(0, members.clone(), KeyDirectory::new(), 7);
            (donor.epoch, donor.last_executed) = (1, last_executed);
            state_transfer_message(&donor)
        };
        // A laggard's state is refused ...
        handle_state_transfer(&mut newcomer, transfer(4));
        assert!(newcomer.needs_state);
        assert_eq!(newcomer.last_executed, 0);
        // ... and the frontier's adopted.
        handle_state_transfer(&mut newcomer, transfer(5));
        assert!(!newcomer.needs_state);
        assert_eq!(newcomer.last_executed, 5);
    }

    #[test]
    fn a_rebuilt_replica_keeps_a_certificate_its_donor_lacks() {
        use super::super::message::{Operation, Request};
        let members = vec![0, 1, 2, 3, 4];
        let batch = vec![Request {
            client: 10_000,
            id: 1,
            operation: Operation::Write(15),
        }];
        // Replica 2 voted COMMIT on sequence 15 in view 4, then its node
        // controller rebuilt it from a donor that executed only 14.
        let mut replica = Replica::new(2, members.clone(), KeyDirectory::new(), 7);
        replica.last_executed = 14;
        replica.prepared.insert(15, (4, batch.clone()));
        let mut out = StepOutput::default();
        begin_rebuild(&mut replica, 0.0, &mut out);
        let mut donor = Replica::new(0, members, KeyDirectory::new(), 7);
        donor.last_executed = 14;
        donor.prepared.insert(14, (4, Vec::new()));
        handle_state_transfer(&mut replica, state_transfer_message(&donor));
        assert!(!replica.pending_rebuild && !replica.needs_state);
        // The rebuilt replica still reports the certificate in its ballots,
        // next to the one it adopted.
        assert_eq!(replica.prepared.get(&15), Some(&(4, batch)));
        assert_eq!(replica.prepared.get(&14), Some(&(4, Vec::new())));
    }

    #[test]
    fn votes_that_arrive_before_the_announcement_count_at_it() {
        let mut reference = executed_one(vec![0, 1, 2, 3, 4]);
        let own = announce(&mut reference);
        let mut replica = executed_one(vec![0, 1, 2, 3, 4]);
        for peer in [1, 3] {
            handle_checkpoint(&mut replica, peer, 1, own);
        }
        assert_eq!(replica.stable_sequence, 0);
        assert_eq!(announce(&mut replica), own);
        assert_eq!(replica.stable_sequence, 1);
    }
}
