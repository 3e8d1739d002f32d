//! View change: the `ViewChange` ballots that elect a new leader, the
//! `NewView` it announces, the certificate refill that re-issues every
//! sequence a voter may have seen commit, and the reconfiguration vote a
//! JOIN or EVICT triggers.

use super::config::ProtocolParams;
use super::message::{Message, PreparedCertificate, Request, ViewChangeVote};
use super::ordering::{certify_prepare, propose_pending};
use super::replica::{Replica, StepOutput};
use super::timers::{pull_state, sits_out};
use crate::crypto::KeyPair;
use crate::usig::UsigVerifier;
use crate::{NodeId, SimTime};
use std::collections::BTreeMap;

/// The high-water mark a replica reports in view changes: the highest
/// sequence number it has executed or prepared.
fn replica_high_sequence(replica: &Replica) -> u64 {
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

/// Forgets own proposals that never executed (called when a new view is
/// installed, see [`Replica::proposed`]).
fn forget_unexecuted_proposals(replica: &mut Replica) {
    let last_executed = replica.last_executed;
    let seen = &mut replica.seen_requests;
    replica.proposed.retain(|key, &mut sequence| {
        if sequence > last_executed {
            seen.remove(key);
            false
        } else {
            true
        }
    });
}

/// Applies a [`super::ControlMessage::Reconfigure`]: adopt the new epoch and
/// membership, refresh the key directory/verifier (keys are derived
/// deterministically from the shared seed), drop the old epoch's view-change
/// ballots, bar leadership of the current view, and either vote the
/// reconfiguration view change (healthy replicas) or pull state (replicas
/// awaiting a transfer). Prepared entries and commit votes survive — they
/// are genuine USIG-certified statements whose high-water marks stop a
/// post-reconfiguration leader from re-assigning executed sequence numbers.
///
/// The barrier: a replica that has not executed up to `frontier` sits the
/// epoch's first ballot out and pulls a state that reaches it. Resizing the
/// membership can break the intersection with *old-configuration* commit
/// quorums — a batch committed by one of them may, after an EVICT, be held
/// by too few members to appear in every new ballot, and a ballot of
/// laggards would gap-fill the committed sequence and re-assign its
/// requests. With every voter at the frontier, gap filling can only hit
/// sequences no member executed.
pub(super) fn apply_reconfiguration(
    replica: &mut Replica,
    epoch: u64,
    membership: Vec<NodeId>,
    frontier: u64,
    now: SimTime,
    out: &mut StepOutput,
) {
    for &member in &membership {
        (replica.directory).register(&KeyPair::derive(member, replica.seed));
    }
    replica.verifier = UsigVerifier::new(replica.directory.clone());
    replica.membership = membership;
    replica.epoch = epoch;
    replica.epoch_frontier = frontier;
    replica.view_change_votes.clear();
    // Leadership of the current view is barred below, so the current leader
    // stream ends here; parked entries can never drain.
    replica.parked_prepares.clear();
    replica.min_lead_view = replica.min_lead_view.max(replica.view + 1);
    if !replica.membership.contains(&replica.id) {
        replica.evicted = true;
        return;
    }
    if replica.last_executed < frontier {
        replica.needs_state = true;
    }
    if replica.crashed {
        return;
    }
    if replica.awaits_state() {
        // A newcomer, a laggard (or a replica mid-recovery/mid-rebuild)
        // re-pulls state in the new epoch; its old-epoch StateRequest is
        // void now.
        pull_state(replica, now, out);
    }
    if !sits_out(replica) {
        replica.voted_view = replica.voted_view.max(replica.view + 1);
        out.broadcast
            .push(view_change_vote(replica, replica.view + 1));
    }
}

/// Counts `from`'s ballot for `new_view`, with the replica's own, and
/// installs the view once the ballot reaches the
/// [`ProtocolParams::view_change_quorum`]; the new leader then announces it
/// and refills the sequences the ballot reports.
#[allow(clippy::too_many_arguments)]
pub(super) fn handle_view_change(
    replica: &mut Replica,
    from: NodeId,
    epoch: u64,
    new_view: u64,
    vote: ViewChangeVote,
    time: SimTime,
    params: &ProtocolParams,
    out: &mut StepOutput,
) {
    if epoch != replica.epoch || new_view <= replica.view {
        return;
    }
    let own_high = replica_high_sequence(replica);
    // A replica awaiting its state transfer must not join the quorum: its
    // high-water mark is meaningless, and counting it would break the
    // intersection with the commit quorums. Its certificate report — a deep
    // clone of every retained batch — is only built when the vote is
    // actually cast. A voter's latest ballot replaces its earlier one, so
    // the replica's own is re-cast, fresh, on every incoming ballot.
    replica.view_change_votes.cast(new_view, from, vote);
    if !replica.needs_state {
        let own = (own_high, replica.stable_sequence, prepared_report(replica));
        replica.view_change_votes.cast(new_view, replica.id, own);
    }
    // The ballot must intersect every commit quorum in a voter that
    // *remembers* the committed certificate, or it could no-op fill a
    // committed sequence and re-assign its batch — a double execution. The
    // quorum pair guarantees the intersection (see
    // `ProtocolParams::commit_quorum`), and every voter in it remembers: a
    // proactive recovery re-images a replica from a donor's snapshot but
    // keeps its own prepared certificates, so a committer rebuilt from a
    // lagging donor still reports what it voted for. Reports are trusted,
    // not re-verified: this holds while an intrusion corrupts only outgoing
    // messages, as the simulator's adversary does, and leaves the memory
    // the recovery keeps as the honest core wrote it. (Computed over the
    // replica's own membership view, which may briefly differ from the
    // cluster's during a reconfiguration.)
    let quorum = ProtocolParams::view_change_quorum(replica.membership.len());
    if replica.view_change_votes.count(new_view) < quorum {
        return;
    }
    let ballot = || replica.view_change_votes.ballot(new_view);
    let max_high = ballot().map(|&(high, _, _)| high).max().unwrap_or(0);
    let quorum_stable = ballot().map(|&(_, stable, _)| stable).max().unwrap_or(0);
    // Freshest reported certificate per sequence (highest view wins; within
    // one view a leader assigns each sequence at most once, so ties agree).
    let mut certificates: BTreeMap<u64, (u64, Vec<Request>)> = BTreeMap::new();
    for (sequence, view, batch) in ballot().flat_map(|(_, _, reported)| reported) {
        if certificates.get(sequence).is_none_or(|&(v, _)| v < *view) {
            certificates.insert(*sequence, (*view, batch.clone()));
        }
    }
    replica.view = new_view;
    forget_unexecuted_proposals(replica);
    // A new view means a new leader UI stream; parked PREPAREs of the old
    // stream can never drain.
    replica.parked_prepares.clear();
    // Ballots for installed views are dead weight.
    replica.view_change_votes.prune_through(new_view);
    // Echo the ballot: stragglers (including the view's leader, which may
    // still be in an older view) only learn about the quorum through votes,
    // and without the echo two camps can rotate views forever with every new
    // leader one view behind.
    out.broadcast.push(view_change_vote(replica, new_view));
    // Compacted history is only reachable through state transfer: a replica
    // whose execution frontier lies below the quorum's stable checkpoint
    // cannot replay the missing batches from certificates (their holders
    // pruned them), so it re-acquires state by pull instead of executing a
    // gap-filled (and diverging) log.
    if replica.last_executed < quorum_stable {
        replica.needs_state = true;
        pull_state(replica, time, out);
    }
    // Prepared entries and commit votes survive the view change (they are
    // keyed by sequence and digest, and USIG certificates cannot be forged):
    // clearing them would lose in-flight quorums and stall the replicas that
    // missed the executions.
    if replica.may_lead() {
        let next_sequence = max_high.max(own_high) + 1;
        replica.next_sequence = next_sequence;
        out.broadcast.push(Message::NewView {
            epoch: replica.epoch,
            view: new_view,
            membership: replica.membership.clone(),
            next_sequence,
        });
        refill(replica, &certificates, next_sequence, out);
        // Re-propose requests the old leader never sequenced. (The refill
        // is deliberately *not* window-gated: it re-issues sequences that
        // may already hold commit votes elsewhere, and stalling it would
        // wedge the view change. Fresh backlog proposals respect the window.)
        replica.prune_pending();
        propose_pending(replica, params, true, out);
    }
}

/// Fills the range up to the quorum's high-water mark from the freshest
/// reported certificates (own prepared entries are part of the ballot); a
/// sequence no voter holds a certificate for cannot have executed anywhere
/// and becomes an *empty batch* — otherwise consecutive execution would
/// stall at the gap forever.
///
/// A request may appear in several reported certificates: a leader that
/// proposed it in an old view keeps its (never-committed) certificate even
/// after a later view re-proposed and committed the same request at a
/// different sequence. Replaying both placements would execute the request
/// twice, so each request is assigned to exactly one refilled sequence — the
/// freshest certificate (highest view, then lowest sequence) wins, which is
/// always the committed placement when one exists.
fn refill(
    replica: &mut Replica,
    certificates: &BTreeMap<u64, (u64, Vec<Request>)>,
    next_sequence: u64,
    out: &mut StepOutput,
) {
    let refill_floor = replica.last_executed + 1;
    let mut priority: Vec<(u64, u64)> = certificates
        .range(refill_floor..next_sequence)
        .map(|(&sequence, &(view, _))| (sequence, view))
        .collect();
    priority.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut assigned: BTreeMap<(NodeId, u64), u64> = BTreeMap::new();
    for (sequence, _) in priority {
        for request in &certificates[&sequence].1 {
            assigned
                .entry((request.client, request.id))
                .or_insert(sequence);
        }
    }
    for sequence in refill_floor..next_sequence {
        let batch: Vec<Request> = (certificates.get(&sequence).into_iter())
            .flat_map(|(_, batch)| batch.iter().copied())
            .filter(|r| {
                let key = (r.client, r.id);
                assigned.get(&key) == Some(&sequence) && !replica.seen_requests.contains(&key)
            })
            .collect();
        // Mark the requests as sequenced so the backlog does not re-propose
        // them at a second sequence number.
        for request in &batch {
            let key = (request.client, request.id);
            replica.seen_requests.insert(key);
            replica.proposed.insert(key, sequence);
        }
        let refill = certify_prepare(replica, sequence, batch, out);
        out.broadcast.push(refill);
    }
}

/// Installs an announced view of the replica's epoch.
pub(super) fn handle_new_view(
    replica: &mut Replica,
    epoch: u64,
    view: u64,
    membership: Vec<NodeId>,
    next_sequence: u64,
) {
    if epoch != replica.epoch || view < replica.view {
        return;
    }
    if view > replica.view {
        replica.parked_prepares.clear();
    }
    replica.view = view;
    replica.membership = membership;
    replica.next_sequence = next_sequence.max(replica.next_sequence);
    replica.request_first_seen.clear();
    forget_unexecuted_proposals(replica);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyDirectory;

    const PARAMS: ProtocolParams = ProtocolParams {
        checkpoint_period: 0,
        batch_size: 1,
        batch_delay: 0.0,
        pipeline_window: 0,
    };

    /// Delivers `from`'s ballot for view 1 with high-water mark `high` and
    /// returns the `NewView` the step announced, if any.
    fn ballot(replica: &mut Replica, from: NodeId, high: u64) -> Option<u64> {
        let mut out = StepOutput::default();
        handle_view_change(
            replica,
            from,
            0,
            1,
            (high, 0, Vec::new()),
            0.0,
            &PARAMS,
            &mut out,
        );
        (out.broadcast.iter()).find_map(|message| match message {
            Message::NewView { next_sequence, .. } => Some(*next_sequence),
            _ => None,
        })
    }

    /// Delivers the `Reconfigure` into epoch 1 with `frontier` to `replica`
    /// and returns what it broadcast.
    fn reconfigure(replica: &mut Replica, frontier: u64) -> Vec<Message> {
        let mut out = StepOutput::default();
        apply_reconfiguration(replica, 1, vec![0, 1, 2, 3], frontier, 0.0, &mut out);
        out.broadcast
    }

    #[test]
    fn a_replica_below_the_reconfiguration_frontier_pulls_and_casts_no_ballot() {
        let executed = |id, last_executed| {
            let mut replica = Replica::new(id, vec![0, 1, 2, 3], KeyDirectory::new(), 7);
            replica.last_executed = last_executed;
            replica
        };
        // At the frontier: the reconfiguration ballot for view 1.
        let mut current = executed(2, 5);
        let sent = reconfigure(&mut current, 5);
        assert!(!current.needs_state);
        assert!(matches!(
            sent.as_slice(),
            [Message::ViewChange {
                epoch: 1,
                new_view: 1,
                high_sequence: 5,
                ..
            }]
        ));
        // One below it: a state pull, and no ballot of its own, not even
        // when a peer's ballot arrives.
        let mut laggard = executed(1, 4);
        let sent = reconfigure(&mut laggard, 5);
        assert!(laggard.needs_state);
        assert!(matches!(
            sent.as_slice(),
            [Message::StateRequest { epoch: 1 }]
        ));
        let mut out = StepOutput::default();
        let vote = (5, 0, Vec::new());
        handle_view_change(&mut laggard, 2, 1, 1, vote, 0.0, &PARAMS, &mut out);
        assert_eq!(laggard.view_change_votes.count(1), 1);
    }

    #[test]
    fn a_recast_ballot_replaces_the_earlier_one_and_counts_once() {
        // Replica 1 leads view 1; the ballot needs three voters.
        let mut leader = Replica::new(1, vec![0, 1, 2, 3], KeyDirectory::new(), 7);
        assert_eq!(ProtocolParams::view_change_quorum(4), 3);
        assert_eq!(ballot(&mut leader, 2, 5), None);
        // Voter 2 re-casts with a higher mark: still two voters.
        assert_eq!(ballot(&mut leader, 2, 9), None);
        assert_eq!(leader.view_change_votes.count(1), 2);
        // The third voter completes the ballot, and the new leader continues
        // above voter 2's latest mark, not its first.
        assert_eq!(ballot(&mut leader, 3, 0), Some(10));
        assert_eq!(leader.view, 1);
        assert_eq!(leader.view_change_votes.len(), 0);
    }
}
