//! The replica's side of time, defined once: the state-pull retry, the
//! partial-batch flush and the view-change stall vote, each with its
//! deadline. The simulated [`super::MinBftCluster`] runs [`replica_on_timer`]
//! once its clock reaches the timer floor [`replica_deadline`] feeds; the live
//! replica loop (`crate::threaded::ReplicaLoop::pass`) runs it once the wall
//! clock passes the same deadline. Like [`super::Client`], time is an
//! argument, and each timer fires iff `now` reaches the deadline its own
//! function returns, so the floor and the firing test cannot disagree by an
//! ulp.

use super::config::ProtocolParams;
use super::message::{ByzantineMode, Message};
use super::ordering::{propose_pending, window_open};
use super::replica::{Replica, StepOutput};
use super::view_change::view_change_vote;
use crate::SimTime;

/// Seconds between re-announcements of an outstanding state pull, on every
/// plane: the `StateRequest` rides the droppable data plane, and one lost
/// broadcast must not strand the recovery.
const STATE_PULL_RETRY: f64 = 0.05;

/// Broadcasts a state pull and restarts its re-announcement timer.
pub(super) fn pull_state(replica: &mut Replica, now: SimTime, out: &mut StepOutput) {
    replica.last_state_pull = now;
    out.broadcast.push(Message::StateRequest {
        epoch: replica.epoch,
    });
}

/// Whether the replica sits out the flush and the stall vote (and the
/// reconfiguration vote): it is crashed or Silent, or has no state.
pub(super) fn sits_out(replica: &Replica) -> bool {
    replica.crashed || replica.byzantine == ByzantineMode::Silent || replica.needs_state
}

/// When an outstanding state pull is re-announced, `last pull + retry`: ∞
/// when none is outstanding or its answer could not be received, −∞ for a
/// pull never announced.
fn state_pull_deadline(replica: &Replica) -> SimTime {
    let pulling =
        replica.awaits_state() && !replica.crashed && replica.byzantine != ByzantineMode::Silent;
    if pulling {
        replica.last_state_pull + STATE_PULL_RETRY
    } else {
        f64::INFINITY
    }
}

/// When a leader proposes its partial batch: `batch_delay` after the oldest
/// pending request was first seen, or `now` if it saw none of them first-hand.
/// ∞ when there is nothing to flush — including a closed pipeline window:
/// deliveries, not timers, re-open it, and a deadline that never becomes
/// actionable would spin the simulated clock on it forever.
fn batch_flush_deadline(replica: &Replica, params: &ProtocolParams, now: SimTime) -> SimTime {
    if !replica.may_lead() || replica.pending.is_empty() || !window_open(replica, params) {
        return f64::INFINITY;
    }
    let oldest = (replica.pending.iter())
        .filter_map(|r| replica.request_first_seen.get(&(r.client, r.id)).copied())
        .fold(f64::INFINITY, f64::min);
    if oldest.is_finite() {
        oldest + params.batch_delay
    } else {
        now
    }
}

/// When the replica votes a view change: `timeout` after the first sighting
/// of the oldest request it has seen but not seen prepared (∞ when none).
fn stall_deadline(replica: &Replica, timeout: f64) -> SimTime {
    (replica.request_first_seen.values()).fold(f64::INFINITY, |t, &seen| t.min(seen + timeout))
}

/// The replica's earliest timer (∞ when none is armed). It moves only when
/// the replica steps or its timers run.
pub(crate) fn replica_deadline(
    replica: &Replica,
    params: &ProtocolParams,
    timeout: f64,
    now: SimTime,
) -> SimTime {
    let pull = state_pull_deadline(replica);
    if sits_out(replica) {
        return pull;
    }
    let flush = batch_flush_deadline(replica, params, now);
    pull.min(flush).min(stall_deadline(replica, timeout))
}

/// Runs the replica's timers at `now`, in order: the state-pull retry, then,
/// unless the replica sits out, the partial-batch flush and the stall vote.
/// Even a leader votes when its requests stall (its proposals may be going
/// into the void). Returns whether a view-change vote was cast.
pub(crate) fn replica_on_timer(
    replica: &mut Replica,
    now: SimTime,
    params: &ProtocolParams,
    timeout: f64,
    out: &mut StepOutput,
) -> bool {
    if now >= state_pull_deadline(replica) {
        pull_state(replica, now, out);
    }
    if sits_out(replica) {
        return false;
    }
    if now >= batch_flush_deadline(replica, params, now) {
        propose_pending(replica, params, true, out);
    }
    if now < stall_deadline(replica, timeout) {
        return false;
    }
    // Vote for the highest view anyone has proposed (not just view + 1):
    // voting `own view + 1` fragments the ballots across views when replicas
    // disagree on the current view, and no proposal ever reaches quorum.
    let highest_proposed = replica.view_change_votes.highest_key().unwrap_or(0);
    let new_view = (replica.view + 1).max(highest_proposed);
    replica.voted_view = replica.voted_view.max(new_view);
    replica.request_first_seen.clear();
    out.broadcast.push(view_change_vote(replica, new_view));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyDirectory;
    use crate::minbft::message::{ControlMessage, Operation, Request, CLIENT_ID_BASE};
    use crate::minbft::replica::replica_on_message;
    use crate::threaded::CONTROL_PLANE_ID;
    use crate::NodeId;

    const TIMEOUT: f64 = 0.1;
    const PARAMS: ProtocolParams = ProtocolParams {
        checkpoint_period: 0,
        batch_size: 16,
        batch_delay: 0.002,
        pipeline_window: 0,
    };

    /// Replica `id` of four after `message` reached it at `t0`.
    fn stepped(id: NodeId, message: Message, t0: SimTime) -> Replica {
        let mut replica = Replica::new(id, vec![0, 1, 2, 3], KeyDirectory::new(), 7);
        let (mut out, mut trace) = (StepOutput::default(), Vec::new());
        let from = CONTROL_PLANE_ID;
        replica_on_message(
            &mut replica,
            from,
            message,
            t0,
            &PARAMS,
            &mut trace,
            &mut out,
        );
        replica
    }

    /// What a timer broadcast, by kind.
    fn kinds(out: &StepOutput) -> Vec<&'static str> {
        (out.broadcast.iter())
            .map(|message| match message {
                Message::StateRequest { .. } => "pull",
                Message::Prepare { .. } => "prepare",
                Message::ViewChange { .. } => "vote",
                _ => "other",
            })
            .collect()
    }

    #[test]
    fn the_replica_deadline_is_the_firing_boundary_to_the_ulp() {
        let request = Message::Request(Request {
            client: CLIENT_ID_BASE,
            id: 0,
            operation: Operation::Write(7),
        });
        let recover = Message::Control(ControlMessage::Recover);
        for t0 in [0.0, 0.3, 1.0 / 3.0, 17.25, 1e6 + 0.1] {
            // A rebuilding replica pulls, the leader flushes its partial
            // batch, a follower votes: each the replica's only armed timer.
            let cases = [
                (stepped(1, recover.clone(), t0), t0 + 0.05, "pull"),
                (
                    stepped(0, request.clone(), t0),
                    t0 + PARAMS.batch_delay,
                    "prepare",
                ),
                (stepped(1, request.clone(), t0), t0 + TIMEOUT, "vote"),
            ];
            for (mut replica, expected, kind) in cases {
                let deadline = replica_deadline(&replica, &PARAMS, TIMEOUT, t0);
                assert_eq!(deadline, expected, "{kind} at {t0}");
                let just_before = f64::from_bits(deadline.to_bits() - 1);
                let mut out = StepOutput::default();
                let voted = replica_on_timer(&mut replica, just_before, &PARAMS, TIMEOUT, &mut out);
                assert!(!voted && out.is_empty(), "{kind} fired early at {t0}");
                let voted = replica_on_timer(&mut replica, deadline, &PARAMS, TIMEOUT, &mut out);
                assert_eq!((kinds(&out), voted), (vec![kind], kind == "vote"));
                // Firing re-arms the timer past `now`, or disarms it.
                assert!(replica_deadline(&replica, &PARAMS, TIMEOUT, deadline) > deadline);
            }
        }
    }
}
