//! Ordering, the normal case of MinBFT: a client REQUEST, the leader's
//! PREPARE (one USIG certificate per batch, accepted counter-consecutively
//! per sender), the COMMIT votes, and the in-order execution that answers
//! the clients once a sequence holds its commit quorum.

use super::checkpoint::announce_checkpoint;
use super::config::ProtocolParams;
use super::message::{batch_digest, CommitRecord, Message, Operation, Request};
use super::replica::{Replica, StepOutput};
use crate::crypto::{combine, digest, Digest};
use crate::usig::UniqueIdentifier;
use crate::{NodeId, SimTime};

/// Bounds for the FIFO-gap machinery: parked out-of-order PREPAREs per
/// replica, retained own UI messages, and messages per resend answer.
const PARKED_PREPARE_LIMIT: usize = 64;
const UI_LOG_LIMIT: usize = 512;
const UI_RESEND_LIMIT: usize = 32;

/// Whether the leader's proposal window is open: at most `pipeline_window`
/// sequences may be proposed beyond the execution frontier. The in-flight
/// count is `next_sequence - 1 - last_executed`, so the window is open while
/// `next_sequence <= last_executed + W`. Always open when the knob is 0 (an
/// unbounded window).
pub(super) fn window_open(replica: &Replica, params: &ProtocolParams) -> bool {
    params.pipeline_window == 0
        || replica.next_sequence <= replica.last_executed + params.pipeline_window as u64
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
    let requests: Vec<Request> = (requests.into_iter())
        .filter(|r| replica.unsequenced(r))
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
pub(super) fn certify_prepare(
    replica: &mut Replica,
    sequence: u64,
    requests: Vec<Request>,
    out: &mut StepOutput,
) -> Message {
    let digest = batch_digest(&requests);
    let ui = replica.usig.create_ui(digest);
    out.created_uis += 1;
    (replica.prepared).insert(sequence, (replica.view, requests.clone()));
    // The leader's PREPARE counts as its COMMIT vote.
    (replica.commit_votes).cast((sequence, digest), replica.id, ());
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

/// Proposes the leader's parked requests in FIFO order, `batch_size` at a
/// time, while the pipeline window is open; with `partial` a short last
/// batch goes too. The remainder stays parked in `pending` until executions
/// re-open the window.
pub(super) fn propose_pending(
    replica: &mut Replica,
    params: &ProtocolParams,
    partial: bool,
    out: &mut StepOutput,
) {
    let size = params.batch_size.max(1);
    let least = if partial { 1 } else { size };
    while replica.may_lead() && window_open(replica, params) && replica.pending.len() >= least {
        let take = size.min(replica.pending.len());
        let batch = replica.pending.drain(..take).collect();
        propose_batch(replica, batch, out);
    }
}

pub(super) fn handle_request(
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
    // Park in FIFO order; a leader drains as far as the batch-fill
    // condition and the window allow.
    if !replica.pending.contains(&request) {
        replica.pending.push_back(request);
    }
    propose_pending(replica, params, false, out);
}

pub(super) fn handle_prepare(
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
pub(super) fn note_ui_counter(replica: &mut Replica, from: NodeId, counter: u64) {
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
    replica.commit_votes.cast((sequence, digest), from, ());
    (replica.commit_votes).cast((sequence, digest), replica.id, ());
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
pub(super) fn handle_commit(
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
    (replica.commit_votes).cast((sequence, batch_digest), from, ());
    execute_ready(replica, params, out, trace);
}

/// Executes all consecutive sequence numbers whose commit quorum (see
/// [`ProtocolParams::commit_quorum`]) has been reached: every request of
/// the batch is applied and answered, checkpoints fire on period multiples.
pub(super) fn execute_ready(
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
        let votes = replica.commit_votes.count((next, batch_digest(batch)));
        if votes < ProtocolParams::commit_quorum(replica.membership.len()) {
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
        replica.prune_pending();
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
            announce_checkpoint(replica, next, out);
        }
    }
}

/// Gap repair: re-sends this replica's own UI-certified messages from
/// `from_counter` on (bounded). Counters below the retained log's floor are
/// unrecoverable here — the requester falls back to a view change or state
/// transfer.
pub(super) fn handle_ui_resend_request(
    replica: &Replica,
    from: NodeId,
    from_counter: u64,
    out: &mut StepOutput,
) {
    if replica.needs_state {
        return;
    }
    let resend = replica.ui_log.range(from_counter..).take(UI_RESEND_LIMIT);
    out.outgoing
        .extend(resend.map(|(_, message)| (from, message.clone())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::{KeyDirectory, KeyPair};
    use crate::minbft::message::CLIENT_ID_BASE;
    use crate::minbft::replica::replica_on_message;
    use crate::usig::Usig;

    const SEED: u64 = 7;
    const PARAMS: ProtocolParams = ProtocolParams {
        checkpoint_period: 0,
        batch_size: 1,
        batch_delay: 0.0,
        pipeline_window: 0,
    };

    /// Replica `id` of four, holding every member's key.
    fn member(id: NodeId) -> Replica {
        let mut directory = KeyDirectory::new();
        for member in 0..4 {
            directory.register(&KeyPair::derive(member, SEED));
        }
        Replica::new(id, vec![0, 1, 2, 3], directory, SEED)
    }

    /// `sender`'s first USIG certificate over `digest`.
    fn first_ui(sender: NodeId, digest: Digest) -> UniqueIdentifier {
        Usig::new(KeyPair::derive(sender, SEED)).create_ui(digest)
    }

    fn deliver(replica: &mut Replica, from: NodeId, message: Message) -> Vec<CommitRecord> {
        let (mut out, mut trace) = (StepOutput::default(), Vec::new());
        replica_on_message(replica, from, message, 0.0, &PARAMS, &mut trace, &mut out);
        trace
    }

    #[test]
    fn a_batch_one_leader_proposes_parked_requests_before_a_newer_one() {
        let request = |id| {
            Message::Request(Request {
                client: CLIENT_ID_BASE,
                id,
                operation: Operation::Write(id),
            })
        };
        // The ids of the requests `message` made the leader prepare.
        let prepared = |leader: &mut Replica, message| {
            let (mut out, mut trace) = (StepOutput::default(), Vec::new());
            let client = CLIENT_ID_BASE;
            replica_on_message(leader, client, message, 0.0, &PARAMS, &mut trace, &mut out);
            (out.broadcast.into_iter())
                .flat_map(|message| match message {
                    Message::Prepare { requests, .. } => requests,
                    _ => Vec::new(),
                })
                .map(|r| r.id)
                .collect::<Vec<_>>()
        };
        // Awaiting state, the leader parks request 1 ...
        let mut leader = member(0);
        leader.needs_state = true;
        assert_eq!(prepared(&mut leader, request(1)), Vec::<u64>::new());
        assert_eq!(leader.pending.len(), 1);
        // ... and once it has state, proposes it before request 2.
        leader.needs_state = false;
        assert_eq!(prepared(&mut leader, request(2)), [1, 2]);
        assert!(leader.pending.is_empty());
    }

    #[test]
    fn commits_that_arrive_before_their_prepare_execute_once_it_lands() {
        let requests = vec![Request {
            client: CLIENT_ID_BASE,
            id: 0,
            operation: Operation::Write(7),
        }];
        let digest = batch_digest(&requests);
        let prepare = Message::Prepare {
            view: 0,
            sequence: 1,
            requests,
            ui: first_ui(0, digest),
        };
        let commit = Message::Commit {
            view: 0,
            sequence: 1,
            batch_digest: digest,
            ui: first_ui(2, digest),
        };
        // The PREPARE alone is two votes, the leader's and the follower's
        // own, of a commit quorum of three.
        assert_eq!(ProtocolParams::commit_quorum(4), 3);
        let mut alone = member(1);
        assert!(deliver(&mut alone, 0, prepare.clone()).is_empty());
        assert_eq!(alone.commit_votes.count((1, digest)), 2);
        // An early COMMIT is kept until its batch is prepared, and then
        // completes the quorum in the PREPARE's own step.
        let mut follower = member(1);
        assert!(deliver(&mut follower, 2, commit).is_empty());
        assert_eq!(follower.commit_votes.count((1, digest)), 1);
        let trace = deliver(&mut follower, 0, prepare);
        assert_eq!(trace.iter().map(|r| r.sequence).collect::<Vec<_>>(), [1]);
        assert_eq!((follower.last_executed, follower.value), (1, 7));
    }
}
