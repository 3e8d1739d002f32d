//! The simulated cluster: replicas, clients, the [`SimNetwork`] and the
//! event loop that drives them, plus the fault-injection hooks of the
//! simulation harness. Recovery and reconfiguration are the live planes'
//! protocol: `recover_replica` delivers [`ControlMessage::Recover`], and
//! `add_replica` / `evict_replica` deliver [`ControlMessage::Reconfigure`]
//! with the members' execution frontier, in `ThreadedCluster`'s order,
//! through the one `control` helper. Past building the newcomer, the
//! cluster writes no replica's membership, epoch, votes or state flags: the
//! barrier that keeps laggards out of a new epoch's first ballot lives in
//! the honest core (`view_change::apply_reconfiguration`).
//!
//! Clients are [`Client`] values, the same client step the live
//! [`crate::ClientDriver`] runs; a closed-loop client also holds the
//! [`OpStream`] it resubmits from. `run_workload` is the one workload
//! runner, Fig. 10's closed loop included.
//!
//! The event loop pays per delivery only for what the delivery changes:
//! `timer_floor` is a lower bound on every pending deadline
//! ([`Client::deadline`], [`timers::replica_deadline`], the adversary's next
//! release). A run starts it at −∞, a dispatch to node X lowers it by X's
//! deadline and the next release (nothing else moves during a dispatch), and
//! the timeout sweep (`check_timeouts`: every [`Client::on_timer`], then every
//! replica's [`timers::replica_on_timer`]) runs only once `now` reaches it,
//! then recomputes it exactly.

use super::adversary::{equivocate, Adversary, AttackerKind};
use super::client::{client_index, Client, TimerAction};
use super::config::{MinBftConfig, ProtocolParams};
use super::message::{
    batch_digest, first_log_divergence, ByzantineMode, CommitRecord, ControlMessage, Message,
    Operation, Request, CLIENT_ID_BASE,
};
use super::replica::{replica_on_message, Replica, StepOutput};
use super::timers::{self, replica_on_timer};
use crate::crypto::{Digest, KeyDirectory, KeyPair};
use crate::metrics::RetryBudgetConfig;
use crate::net::{Delivery, NetworkConfig, SimNetwork};
use crate::threaded::CONTROL_PLANE_ID;
use crate::transport::Transport;
use crate::workload::{Arrival, OpStream, WorkloadConfig, WorkloadReport};
use crate::{hybrid_fault_threshold, NodeId, SimTime, PARALLEL_RECOVERIES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

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

/// A simulated MinBFT cluster: replicas, clients, the network and the event
/// loop that drives them.
pub struct MinBftCluster {
    config: MinBftConfig,
    pub(super) network: SimNetwork<Message>,
    /// Ordered maps: timers fire and retransmissions go out in id order, and
    /// the send order decides how the network RNG is consumed — replays are
    /// byte-identical only under a deterministic order.
    pub(super) replicas: BTreeMap<NodeId, Replica>,
    /// Indexed by `id − CLIENT_ID_BASE`, so in id order too. A client with a
    /// stream is a closed loop: it resubmits the moment a request completes.
    clients: Vec<(Client, Option<OpStream>)>,
    busy_until: BTreeMap<NodeId, SimTime>,
    /// A lower bound on every pending timer deadline (see the module docs).
    timer_floor: SimTime,
    membership: Vec<NodeId>,
    directory: KeyDirectory,
    next_node_id: NodeId,
    view_changes: u64,
    /// The configuration epoch (bumped by every JOIN/EVICT).
    epoch: u64,
    commit_trace: Vec<CommitRecord>,
    /// Every replica's outgoing traffic passes through here.
    pub(super) adversary: Adversary,
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
        let next_node_id = config.initial_replicas as NodeId;
        let adversary = Adversary::new(config.seed, config.request_timeout);
        MinBftCluster {
            config,
            network,
            replicas,
            clients: Vec::new(),
            busy_until: BTreeMap::new(),
            timer_floor: f64::NEG_INFINITY,
            membership,
            directory,
            next_node_id,
            view_changes: 0,
            epoch: 0,
            commit_trace: Vec::new(),
            adversary,
            retry_budget: None,
            request_receptions: 0,
            retransmissions_sent: 0,
            retransmissions_suppressed: 0,
        }
    }

    /// The protocol knobs handed to the shared replica step functions.
    fn protocol_params(&self) -> ProtocolParams {
        ProtocolParams {
            checkpoint_period: self.config.checkpoint_period,
            batch_size: self.config.batch_size.max(1),
            batch_delay: self.config.batch_delay,
            pipeline_window: self.config.pipeline_window,
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
        hybrid_fault_threshold(self.membership.len(), PARALLEL_RECOVERIES)
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
    #[cfg(test)]
    pub(crate) fn stable_checkpoint(&self, replica: NodeId) -> Option<u64> {
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
        self.replicas.get(&replica).is_some_and(|r| r.crashed)
    }

    /// Whether a replica is still waiting for a state transfer after a
    /// recovery or join.
    pub fn needs_state(&self, replica: NodeId) -> bool {
        self.replicas.get(&replica).is_some_and(|r| r.needs_state)
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

    /// Actuates a new leader-batching configuration online (the autotune
    /// hook). The pair is re-clamped through the fragmentation floor
    /// (`batch_delay ≥ batch_size × per-request cost`, see
    /// `MinBftConfig::min_batch_delay`) so the live configuration always
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

    /// Installs (or clears) a retransmission budget on every current and
    /// future client. Existing clients restart from the full burst
    /// allowance.
    pub fn set_retry_budget(&mut self, config: Option<RetryBudgetConfig>) {
        self.retry_budget = config;
        for (client, _) in &mut self.clients {
            client.set_retry_budget(config);
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
        (self.clients.iter_mut())
            .flat_map(|(client, _)| client.take_latencies())
            .collect()
    }

    /// Test-only fault injection: makes the replica execute a corrupted
    /// digest for every subsequent request while still reporting itself as
    /// correct. This simulates an implementation bug (not an attacker, which
    /// is modelled by [`ByzantineMode`]) and exists so that agreement oracles
    /// can be validated against a known safety violation. The wipe that
    /// completes a recovery clears the flag.
    pub fn inject_double_commit(&mut self, replica: NodeId) {
        if let Some(r) = self.replicas.get_mut(&replica) {
            r.corrupt_execution = true;
        }
    }

    /// Registers a new client and returns its identifier.
    pub fn add_client(&mut self) -> NodeId {
        let id = CLIENT_ID_BASE + self.clients.len() as NodeId;
        self.clients
            .push((Client::new(id, self.retry_budget), None));
        id
    }

    /// The client with identifier `id`, and its closed-loop stream.
    fn client(&self, id: NodeId) -> Option<&(Client, Option<OpStream>)> {
        client_index(id).and_then(|index| self.clients.get(index))
    }

    fn client_mut(&mut self, id: NodeId) -> Option<&mut (Client, Option<OpStream>)> {
        client_index(id).and_then(|index| self.clients.get_mut(index))
    }

    /// Submits one request from the given client and returns it (so callers
    /// such as invariant oracles can record its digest).
    ///
    /// # Panics
    ///
    /// Panics if the client is unknown or already has an outstanding request.
    pub fn submit(&mut self, client: NodeId, operation: Operation) -> Request {
        let now = self.network.now();
        let (state, _) = self.client_mut(client).expect("unknown client");
        let request = state.start(operation, now);
        self.network
            .broadcast(client, &self.membership, &Message::Request(request));
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
    /// Delivery of a recovery command or an eviction clears it.
    pub fn set_attacker(&mut self, replica: NodeId, attacker: Option<AttackerKind>) {
        if let Some(r) = self.replicas.get_mut(&replica) {
            r.prepare_hook = match attacker {
                Some(AttackerKind::EquivocatingLeader) => Some(equivocate),
                _ => None,
            };
            self.adversary.assign(replica, attacker);
        }
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

    /// Crashes a replica (it stops processing and the network drops its
    /// traffic).
    pub fn crash_replica(&mut self, replica: NodeId) {
        if let Some(r) = self.replicas.get_mut(&replica) {
            r.crashed = true;
        }
        self.network.crash(replica);
    }

    /// Recovers a replica the way a live node's privileged domain does (the
    /// operation the paper's node controllers trigger, Section VII-C): lifts
    /// its link, ends the fail-stop flag and any attacker assignment, and
    /// delivers [`ControlMessage::Recover`] past the crashed/Silent gate, as
    /// the trusted control channel does. Everything else is the replica's own
    /// two-phase rebuild: it pulls state, re-announcing the pull until a
    /// transfer covering its own frontier lands, and only then wipes and
    /// adopts atomically — so the unique holder of a committed suffix keeps
    /// serving it, its USIG counter continues and no peer is touched.
    /// Returns whether `replica` is a member.
    pub fn recover_replica(&mut self, replica: NodeId) -> bool {
        let Some(r) = self.replicas.get_mut(&replica) else {
            return false;
        };
        self.network.restart(replica);
        r.crashed = false;
        r.prepare_hook = None;
        self.adversary.assign(replica, None);
        self.control(replica, ControlMessage::Recover);
        true
    }

    /// Delivers `command` to `replica` the way the live control plane does:
    /// from [`CONTROL_PLANE_ID`], past the crashed/Silent gate, with the
    /// step's output sent through the adversary.
    fn control(&mut self, replica: NodeId, command: ControlMessage) {
        let params = self.protocol_params();
        let now = self.network.now();
        let Some(r) = self.replicas.get_mut(&replica) else {
            return;
        };
        let (mut out, command) = (StepOutput::default(), Message::Control(command));
        let trace = &mut self.commit_trace;
        replica_on_message(r, CONTROL_PLANE_ID, command, now, &params, trace, &mut out);
        self.adversary
            .emit(r, out, &self.membership, &mut self.network);
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
    /// system controller): a [`Replica::newcomer`], then the new epoch's
    /// [`ControlMessage::Reconfigure`] to every member, the newcomer last —
    /// the order of `ThreadedCluster::join`. Returns the new replica's
    /// identifier.
    pub fn add_replica(&mut self) -> NodeId {
        let id = self.next_node_id;
        self.next_node_id += 1;
        let keys = KeyPair::derive(id, self.config.seed);
        self.directory.register(&keys);
        self.membership.push(id);
        self.epoch += 1;
        let (members, directory) = (self.membership.clone(), self.directory.clone());
        let newcomer =
            Replica::newcomer(id, members.clone(), directory, self.config.seed, self.epoch);
        self.replicas.insert(id, newcomer);
        self.reconfigure(&members);
        id
    }

    /// Evicts a replica from the system (the EVICT reconfiguration): the new
    /// epoch's [`ControlMessage::Reconfigure`] to the survivors, then to the
    /// evicted replica, which leaves the simulation.
    pub fn evict_replica(&mut self, replica: NodeId) {
        self.membership.retain(|&id| id != replica);
        self.epoch += 1;
        let mut told = self.membership.clone();
        told.push(replica);
        self.reconfigure(&told);
        self.replicas.remove(&replica);
        self.adversary.assign(replica, None);
        self.network.crash(replica);
    }

    /// Sends the current epoch and membership to `told`, in order, with the
    /// execution frontier of the members that are live and hold state.
    fn reconfigure(&mut self, told: &[NodeId]) {
        let frontier = (self.membership.iter())
            .filter_map(|id| self.replicas.get(id))
            .filter(|r| !r.crashed && !r.awaits_state())
            .map(|r| r.last_executed)
            .max()
            .unwrap_or(0);
        let command = ControlMessage::Reconfigure {
            epoch: self.epoch,
            membership: self.membership.clone(),
            frontier,
        };
        for &id in told {
            self.control(id, command.clone());
        }
        self.view_changes += 1;
    }

    /// The earliest pending timer of any node or of the adversary. Event
    /// loops advance the clock here when no deliveries remain — without a
    /// timer wheel, a fully stalled system (every message already delivered
    /// or lost) would only recover at the run's final deadline, and a single
    /// quiet stall would zero out the rest of a throughput run.
    pub(super) fn next_timer_deadline(&self) -> Option<SimTime> {
        let timeout = self.config.request_timeout;
        let clients = self.clients.iter().map(|(c, _)| c.deadline(timeout));
        let replicas = self.membership.iter().map(|&id| self.replica_deadline(id));
        let deadline = (clients.chain(replicas).chain(self.adversary.next_release()))
            .fold(f64::INFINITY, f64::min);
        // A pull that was never announced is due at once (−∞), not never.
        (deadline < f64::INFINITY).then_some(deadline)
    }

    /// The earliest timer of replica `id` ([`timers::replica_deadline`]; ∞
    /// once it is gone). Like [`Client::deadline`], it matches its firing
    /// test in `check_timeouts` ulp for ulp.
    fn replica_deadline(&self, id: NodeId) -> SimTime {
        let timeout = self.config.request_timeout;
        (self.replicas.get(&id)).map_or(f64::INFINITY, |replica| {
            timers::replica_deadline(replica, &self.protocol_params(), timeout, self.now())
        })
    }

    /// Dispatches one delivery, lowers the floor by what it can have armed
    /// (the recipient's timers, a held vote) and sweeps if the floor is due.
    fn deliver(&mut self, delivery: Delivery<Message>) {
        let to = delivery.to;
        self.dispatch(delivery.from, to, delivery.message, delivery.time);
        let own = match self.client(to) {
            Some((client, _)) => client.deadline(self.config.request_timeout),
            None => self.replica_deadline(to),
        };
        let release = self.adversary.next_release().unwrap_or(f64::INFINITY);
        self.timer_floor = self.timer_floor.min(own).min(release);
        self.fire_due_timers();
    }

    /// Sweeps the timers once `now` reaches the floor, then recomputes it.
    fn fire_due_timers(&mut self) {
        if self.now() >= self.timer_floor {
            self.check_timeouts();
            self.timer_floor = self.next_timer_deadline().unwrap_or(f64::INFINITY);
        }
    }

    /// Runs the event loop until `deadline` (simulated seconds).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.timer_floor = f64::NEG_INFINITY;
        loop {
            // Bounded pop: messages at the queue head that must be dropped
            // are consumed, but nothing beyond the deadline is dispatched.
            while let Some(delivery) = self.network.next_delivery_until(deadline) {
                self.deliver(delivery);
            }
            // No deliveries left before the deadline: advance the clock to
            // the next timer (retransmission, stall vote, batch flush) so a
            // quiet stall recovers instead of persisting to the deadline.
            if !self.fire_next_timer(deadline) {
                break;
            }
        }
        self.network.advance_to(deadline);
        self.fire_due_timers();
    }

    /// Runs the event loop until the system is quiet (no deliveries and no
    /// pending timers) or `max_time` is reached.
    pub fn run_until_quiet(&mut self, max_time: SimTime) {
        self.timer_floor = f64::NEG_INFINITY;
        loop {
            while let Some(delivery) = self.network.next_delivery_until(max_time) {
                self.deliver(delivery);
            }
            self.fire_due_timers();
            if !self.fire_next_timer(max_time) {
                break;
            }
        }
    }

    /// The idle advance: moves the clock to the earliest timer, which is the
    /// exact floor, and fires it; `false` if none is due by `limit`.
    fn fire_next_timer(&mut self, limit: SimTime) -> bool {
        let Some(timer_at) = self.next_timer_deadline().filter(|&t| t <= limit) else {
            return false;
        };
        assert!(self.timer_floor <= timer_at, "floor above a due timer");
        self.timer_floor = timer_at;
        self.network.advance_to(timer_at);
        self.fire_due_timers();
        true
    }

    /// Number of completed requests of a client.
    pub fn completed_requests(&self, client: NodeId) -> u64 {
        self.client(client).map_or(0, |(c, _)| c.completed())
    }

    /// Whether the client still has an unanswered request in flight.
    pub fn has_outstanding_request(&self, client: NodeId) -> bool {
        self.client(client)
            .is_some_and(|(c, _)| c.outstanding().is_some())
    }

    /// The service value stored at a replica (for tests).
    pub fn replica_value(&self, replica: NodeId) -> Option<u64> {
        self.replicas.get(&replica).map(|r| r.value)
    }

    /// The key-value entry stored at a replica (for tests).
    pub(crate) fn replica_kv(&self, replica: NodeId, key: u32) -> Option<u64> {
        self.replicas
            .get(&replica)
            .and_then(|r| r.kv.get(&key).copied())
    }

    /// The value a replica holds staged (reserved, uncommitted) for
    /// `(tx, key)`, if any — the observability hook of the MultiPut
    /// atomicity tests: a staged write must never be visible through
    /// [`Operation::Get`].
    pub(crate) fn replica_staged(&self, replica: NodeId, tx: u64, key: u32) -> Option<u64> {
        self.replicas
            .get(&replica)
            .and_then(|r| r.staged.get(&(tx, key)).copied())
    }

    /// Retained executed-request logs of all non-crashed, non-Byzantine
    /// replicas, as `(replica, log_start, suffix)`.
    pub(crate) fn healthy_logs(&self) -> Vec<(NodeId, u64, Vec<Digest>)> {
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

    /// Runs a client workload (open- or closed-loop arrival over the
    /// key-value service) for `workload.duration` simulated seconds; Fig. 10
    /// is its closed loop with `key_space: 0` and `write_ratio: 1.0`. The
    /// workload's own seed drives arrival times and operation mixes,
    /// independent of the cluster seed.
    pub fn run_workload(&mut self, workload: &WorkloadConfig) -> WorkloadReport {
        let mut arrivals_rng = StdRng::seed_from_u64(workload.seed ^ 0x776f_726b_6c6f_6164);
        let first = self.clients.len();
        let client_ids: Vec<NodeId> = (0..workload.clients.max(1))
            .map(|_| self.add_client())
            .collect();
        let mut streams: Vec<OpStream> = (0..client_ids.len())
            .map(|index| {
                OpStream::for_client(
                    workload.seed,
                    index,
                    workload.key_space,
                    workload.write_ratio,
                )
            })
            .collect();
        let start = self.now();
        let deadline = start + workload.duration;
        let mut offered: u64 = 0;
        let mut shed: u64 = 0;
        match workload.arrival {
            Arrival::Closed => {
                for (i, mut stream) in streams.into_iter().enumerate() {
                    self.submit(client_ids[i], stream.next_op());
                    self.clients[first + i].1 = Some(stream);
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
                    let pool = client_ids.len();
                    let idle = (0..pool)
                        .map(|step| (cursor + step) % pool)
                        .find(|&i| !self.has_outstanding_request(client_ids[i]));
                    match idle {
                        Some(i) => {
                            self.submit(client_ids[i], streams[i].next_op());
                            offered += 1;
                            cursor = (i + 1) % pool;
                        }
                        None => shed += 1,
                    }
                }
                self.run_until(deadline);
            }
        }
        let pool = &self.clients[first..];
        let completed: u64 = pool.iter().map(|(c, _)| c.completed()).sum();
        let latencies = pool.iter().flat_map(|(c, _)| c.latencies());
        let samples = latencies.clone().count();
        let mean_latency = if samples == 0 {
            0.0
        } else {
            latencies.sum::<f64>() / samples as f64
        };
        if matches!(workload.arrival, Arrival::Closed) {
            let in_flight = pool.iter().filter(|(c, _)| c.outstanding().is_some());
            offered = completed + in_flight.count() as u64;
        }
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

    pub(super) fn dispatch(&mut self, from: NodeId, to: NodeId, message: Message, time: SimTime) {
        // Per-node serial processing time: a node that is busy handles the
        // message when it becomes free. Verifying a USIG certificate costs
        // `signature_time` on top (one per PREPARE/COMMIT — batching exists
        // to amortize exactly this).
        let verify_cost = match &message {
            Message::Prepare { .. } | Message::Commit { .. } => self.config.signature_time,
            _ => 0.0,
        };
        let busy = self.busy_until.entry(to).or_insert(0.0);
        let handle_time = busy.max(time);
        *busy = handle_time + self.config.processing_time + verify_cost;

        if to >= CLIENT_ID_BASE {
            self.handle_client_message(from, to, message, handle_time);
        } else {
            self.handle_replica_message(from, to, message, handle_time);
        }
    }

    fn handle_client_message(&mut self, from: NodeId, to: NodeId, message: Message, time: SimTime) {
        let n = self.membership.len();
        let Message::Reply {
            request_id, value, ..
        } = message
        else {
            return;
        };
        let Some((client, stream)) = self.client_mut(to) else {
            return;
        };
        if client.on_reply(from, request_id, value, n, time).is_some() {
            // A closed loop resubmits at once, before anything else is sent.
            if let Some(op) = stream.as_mut().map(OpStream::next_op) {
                self.submit(to, op);
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
            *self.busy_until.entry(to).or_insert(0.0) +=
                self.config.signature_time * f64::from(out.created_uis);
        }
        // Send outgoing traffic; sending happens when the node finished
        // processing.
        self.network.advance_to(time + self.config.processing_time);
        self.adversary.emit(
            &self.replicas[&to],
            out,
            &self.membership,
            &mut self.network,
        );
    }

    /// Checks request timeouts: clients retransmit unanswered requests, then
    /// every replica runs [`replica_on_timer`] (the state-pull retry, the
    /// partial-batch flush and the stall vote).
    pub(super) fn check_timeouts(&mut self) {
        let now = self.network.now();
        let timeout = self.config.request_timeout;
        // Client retransmissions, in id order.
        for (client, _) in &mut self.clients {
            match client.on_timer(now, timeout) {
                TimerAction::Idle => {}
                TimerAction::Retransmit(request) => {
                    self.retransmissions_sent += 1;
                    let retransmission = Message::Request(request);
                    (self.network).broadcast(client.id(), &self.membership, &retransmission);
                }
                TimerAction::Suppressed => self.retransmissions_suppressed += 1,
            }
        }
        // Replica timers, in id order.
        let params = self.protocol_params();
        for replica in self.replicas.values_mut() {
            let mut out = StepOutput::default();
            if replica_on_timer(replica, now, &params, timeout, &mut out) {
                self.view_changes += 1;
            }
            if !out.is_empty() {
                self.adversary
                    .emit(replica, out, &self.membership, &mut self.network);
            }
        }
        self.adversary.release_due(now, &mut self.network);
    }
}
