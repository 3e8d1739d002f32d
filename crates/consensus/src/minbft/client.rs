//! The client's side of MinBFT, as a value every plane steps: the simulated
//! [`super::MinBftCluster`] and the live [`crate::ClientDriver`] (over
//! channels or sockets) hold one [`Client`] per identity and call the same
//! functions. Like `replica_on_message`, every function takes the time as an
//! argument; the caller decides where it comes from (simulated or wall
//! clock) and what to do with a request the client hands back (broadcast it
//! to the membership).

use super::config::ProtocolParams;
use super::message::{Operation, Request, CLIENT_ID_BASE};
use super::quorum::Votes;
use crate::metrics::{RetryBudget, RetryBudgetConfig};
use crate::{NodeId, SimTime};

/// The position of client `id` in a plane's client list: ids are dense from
/// [`CLIENT_ID_BASE`] (`None` for a replica or the control plane).
pub(crate) fn client_index(id: NodeId) -> Option<usize> {
    id.checked_sub(CLIENT_ID_BASE).map(|index| index as usize)
}

/// One client: at most one request in flight, completed once its
/// [`ProtocolParams::reply_quorum`] of distinct replicas reply with the same
/// value, and retransmitted every `timeout` until then (through the retry
/// budget, when one is installed). A request's latency counts from its first
/// send, however often it was retransmitted.
#[derive(Debug)]
pub(crate) struct Client {
    id: NodeId,
    next_request_id: u64,
    outstanding: Option<Outstanding>,
    completed: u64,
    latencies: Vec<f64>,
    /// Retransmission token bucket (`None`: every timeout retransmits).
    retry_budget: Option<RetryBudget>,
}

/// The request in flight, the replies received for it keyed by value, when
/// it was first sent (the latency sample's start) and when its timer was
/// last armed.
#[derive(Debug)]
struct Outstanding {
    request: Request,
    votes: Votes<u64>,
    first_sent: SimTime,
    started: SimTime,
}

/// What a client's retransmission timer did (see [`Client::on_timer`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TimerAction {
    /// Nothing in flight, or the deadline is still ahead.
    Idle,
    /// Broadcast this request again.
    Retransmit(Request),
    /// The deadline passed but the retry budget denied the retransmission.
    Suppressed,
}

impl Client {
    pub(crate) fn new(id: NodeId, retry_budget: Option<RetryBudgetConfig>) -> Self {
        Client {
            id,
            next_request_id: 0,
            outstanding: None,
            completed: 0,
            latencies: Vec::new(),
            retry_budget: retry_budget.map(RetryBudget::new),
        }
    }

    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// The request in flight, if any.
    pub(crate) fn outstanding(&self) -> Option<&Request> {
        self.outstanding.as_ref().map(|o| &o.request)
    }

    /// Requests completed so far.
    pub(crate) fn completed(&self) -> u64 {
        self.completed
    }

    /// Latencies (seconds) of the completed requests not yet taken.
    pub(crate) fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    pub(crate) fn take_latencies(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.latencies)
    }

    /// Installs (or clears) the retry budget, starting from a full burst.
    pub(crate) fn set_retry_budget(&mut self, config: Option<RetryBudgetConfig>) {
        self.retry_budget = config.map(RetryBudget::new);
    }

    /// Starts the next request at `now`; the caller broadcasts it.
    ///
    /// # Panics
    ///
    /// Panics if a request is already outstanding.
    pub(crate) fn start(&mut self, operation: Operation, now: SimTime) -> Request {
        assert!(
            self.outstanding.is_none(),
            "client already has an outstanding request"
        );
        let request = Request {
            client: self.id,
            id: self.next_request_id,
            operation,
        };
        self.next_request_id += 1;
        self.outstanding = Some(Outstanding {
            request,
            votes: Votes::new(),
            first_sent: now,
            started: now,
        });
        request
    }

    /// Counts `from`'s reply `value` for request `request_id`. Returns the
    /// request once the [`ProtocolParams::reply_quorum`] of a membership of
    /// `members` replicas agrees on one value: the client records the
    /// latency sample, earns its retry budget and is idle again. Replies to
    /// any other request are ignored.
    pub(crate) fn on_reply(
        &mut self,
        from: NodeId,
        request_id: u64,
        value: u64,
        members: usize,
        now: SimTime,
    ) -> Option<Request> {
        let outstanding = self.outstanding.as_mut()?;
        if outstanding.request.id != request_id {
            return None;
        }
        outstanding.votes.cast(value, from, ());
        // Every value, not only this one: the quorum may have shrunk with
        // the membership since the last reply.
        let quorum = ProtocolParams::reply_quorum(members);
        outstanding.votes.key_reaching(quorum)?;
        let Outstanding {
            request,
            first_sent,
            ..
        } = self.outstanding.take()?;
        self.completed += 1;
        self.latencies.push(now - first_sent);
        if let Some(budget) = self.retry_budget.as_mut() {
            budget.on_success();
        }
        Some(request)
    }

    /// When [`Client::on_timer`] next acts: `started + timeout`, or ∞ with
    /// nothing outstanding. The same expression as the firing test, so a
    /// `now` below it means the timer would do nothing.
    pub(crate) fn deadline(&self, timeout: f64) -> SimTime {
        (self.outstanding.as_ref()).map_or(f64::INFINITY, |o| o.started + timeout)
    }

    /// Runs the retransmission timer at `now`. Once the deadline has passed
    /// it is re-armed at `now` whether or not the budget grants the
    /// retransmission: a denied client backs off for another timeout (earning
    /// the trickle refill) instead of amplifying the overload that caused the
    /// loss.
    pub(crate) fn on_timer(&mut self, now: SimTime, timeout: f64) -> TimerAction {
        let Some(outstanding) = self.outstanding.as_mut() else {
            return TimerAction::Idle;
        };
        if now < outstanding.started + timeout {
            return TimerAction::Idle;
        }
        outstanding.started = now;
        let within_budget = (self.retry_budget.as_mut()).is_none_or(RetryBudget::try_retry);
        if within_budget {
            TimerAction::Retransmit(outstanding.request)
        } else {
            TimerAction::Suppressed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four replicas: a reply quorum of two.
    const N: usize = 4;

    fn started() -> Client {
        let mut client = Client::new(CLIENT_ID_BASE, None);
        client.start(Operation::Write(7), 1.0);
        client
    }

    #[test]
    fn a_reply_quorum_completes_the_request_once() {
        let mut client = started();
        assert_eq!(client.on_reply(0, 0, 7, N, 1.5), None);
        assert_eq!(client.on_reply(0, 0, 7, N, 1.7), None);
        assert_eq!(client.on_reply(1, 0, 8, N, 1.8), None);
        let request = client.on_reply(2, 0, 7, N, 2.0).expect("f + 1 agree");
        assert_eq!((request.client, request.id), (CLIENT_ID_BASE, 0));
        assert_eq!(client.outstanding(), None);
        assert_eq!((client.completed(), client.latencies()), (1, &[1.0][..]));
        // A late reply to the completed request changes nothing.
        assert_eq!(client.on_reply(3, 0, 7, N, 2.5), None);
        assert_eq!(client.completed(), 1);
    }

    #[test]
    fn a_stale_request_id_does_not_complete_the_request() {
        let mut client = started();
        client.on_reply(0, 0, 7, N, 1.1);
        client.on_reply(1, 0, 7, N, 1.1);
        client.start(Operation::Write(8), 2.0);
        for from in 0..4 {
            assert_eq!(client.on_reply(from, 0, 7, N, 3.0), None);
        }
        assert_eq!(client.outstanding().map(|r| r.id), Some(1));
        assert_eq!(client.completed(), 1);
    }

    #[test]
    fn the_deadline_is_the_firing_boundary_to_the_ulp() {
        let timeout = 0.1;
        for t0 in [0.0, 0.3, 1.0 / 3.0, 17.25, 1e6 + 0.1] {
            let mut client = Client::new(CLIENT_ID_BASE, None);
            client.start(Operation::Read, t0);
            let deadline = client.deadline(timeout);
            let just_before = f64::from_bits(deadline.to_bits() - 1);
            assert_eq!(client.on_timer(just_before, timeout), TimerAction::Idle);
            assert!(matches!(
                client.on_timer(deadline, timeout),
                TimerAction::Retransmit(request) if request.id == 0
            ));
            assert_eq!(client.deadline(timeout), deadline + timeout);
        }
        assert_eq!(
            Client::new(CLIENT_ID_BASE, None).deadline(timeout),
            f64::INFINITY
        );
    }

    #[test]
    fn a_retransmitted_requests_latency_counts_from_its_first_send() {
        let mut client = started();
        assert!(matches!(
            client.on_timer(1.5, 0.5),
            TimerAction::Retransmit(_)
        ));
        assert!(matches!(
            client.on_timer(2.0, 0.5),
            TimerAction::Retransmit(_)
        ));
        // The timer re-armed at the last send; the sample starts at the first.
        assert_eq!(client.deadline(0.5), 2.5);
        client.on_reply(0, 0, 7, N, 2.25);
        client.on_reply(1, 0, 7, N, 2.25);
        assert_eq!(client.latencies(), &[1.25][..]);
    }

    #[test]
    fn a_denied_retransmission_rearms_the_timer_and_sends_nothing() {
        let budget = RetryBudgetConfig {
            ratio: 0.0,
            burst: 1.0,
            trickle: 0.0,
        };
        let mut client = Client::new(CLIENT_ID_BASE, Some(budget));
        client.start(Operation::Read, 0.0);
        assert!(matches!(
            client.on_timer(1.0, 1.0),
            TimerAction::Retransmit(_)
        ));
        assert_eq!(client.on_timer(2.0, 1.0), TimerAction::Suppressed);
        assert_eq!(client.deadline(1.0), 3.0);
        assert_eq!(client.on_timer(2.5, 1.0), TimerAction::Idle);
        assert!(client.outstanding().is_some());
    }
}
