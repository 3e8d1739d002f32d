//! The MinBFT data plane as a real concurrent service.
//!
//! This module runs the *same* replica state machine as the simulated
//! [`crate::MinBftCluster`] — the transport-agnostic step functions of
//! [`crate::minbft`] — with one OS thread per replica over the bounded
//! channels of [`crate::transport::ThreadedTransport`]. A driver thread
//! plays the closed-loop client population with the simulator's client step
//! (`minbft::client::Client`: f+1 matching replies complete a request,
//! timeouts retransmit), so a full cluster serves requests concurrently at
//! wall-clock speed instead of simulated time. The simulated twin of the
//! driver, Fig. 10's closed loop included, is
//! [`crate::MinBftCluster::run_workload`].
//!
//! Since PR 4 the service is **controllable while it runs**:
//! [`ThreadedCluster`] exposes the actuation surface of the paper's
//! two-level control plane — [`ThreadedCluster::recover`] delivers a
//! [`ControlMessage::Recover`] to a live replica (rebuild + pull-based
//! state transfer, the node-controller actuator), and
//! [`ThreadedCluster::join`]/[`ThreadedCluster::evict`] reshape the
//! membership of the running cluster through
//! [`ControlMessage::Reconfigure`] epochs (the system-controller actuator).
//! Actuation commands travel on a dedicated per-replica control channel —
//! the trusted link from the node's privileged domain, drained with
//! priority and never subject to data-plane backpressure — while the
//! recovery's state pull rides the ordinary droppable transport and is
//! re-announced until a transfer lands. The replica-side transitions live
//! in [`crate::minbft::replica_on_message`], so the simulated and the
//! threaded cluster actuate identically.
//!
//! Random faults are still owned by the deterministic simnet harness; the
//! threaded service injects *scripted* intrusions
//! ([`ThreadedCluster::compromise`]) so the live control loop has something
//! real to detect and repair.

use crate::crypto::{Digest, KeyDirectory, KeyPair};
use crate::metrics::{RetryBudgetConfig, SharedTuning};
use crate::minbft::{
    client_index, replica_deadline, replica_on_message, replica_on_timer, Client, CommitRecord,
    ControlMessage, Message, ProtocolParams, Replica, StepOutput, TimerAction, CLIENT_ID_BASE,
};
use crate::net::Delivery;
use crate::transport::{
    Outgoing, ThreadedTransport, Transport, TransportHandle, TransportStats, WallClock,
};
use crate::workload::OpStream;
use crate::{ByzantineMode, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The sender id control commands carry. Below [`CLIENT_ID_BASE`] and above
/// any replica id, so it never collides; control-plane actuation only sends
/// and never receives, so no mailbox is registered for it.
pub(crate) const CONTROL_PLANE_ID: NodeId = 9_000;

/// Configuration of a threaded MinBFT service run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThreadedServiceConfig {
    /// Number of replica threads.
    pub replicas: usize,
    /// Number of closed-loop clients (driven by one driver thread).
    pub clients: usize,
    /// Maximum requests per PREPARE (see [`crate::MinBftConfig::batch_size`]).
    pub batch_size: usize,
    /// Seconds a partial batch may age before flushing. Subject to the same
    /// batch-fill constraint as [`crate::MinBftConfig::batch_delay`].
    pub batch_delay: f64,
    /// Executed sequences between checkpoints (log compaction period;
    /// `0` disables checkpoints).
    pub checkpoint_period: u64,
    /// Client/view-change timeout in wall-clock seconds (generous: a busy
    /// host must not trigger spurious view changes).
    pub request_timeout: f64,
    /// Capacity of each replica's mailbox (bounded channel).
    pub channel_capacity: usize,
    /// Maximum proposed-but-unexecuted sequences the leader keeps in flight
    /// (see [`crate::MinBftConfig::pipeline_window`]; `0` = unbounded).
    pub pipeline_window: usize,
    /// Wall-clock seconds each created USIG signature costs the replica
    /// thread (modelled as a sleep after the step that created it, before
    /// its output is flushed — the paper's RSA signing latency). `0.0`
    /// disables the model. This is what pipelining overlaps with network
    /// round trips: a serial leader pays it once per in-flight batch.
    pub signature_time: f64,
    /// Wall-clock duration of the run in seconds.
    pub duration: f64,
    /// Key-space size of the generated operations (0 = register ops).
    pub key_space: u32,
    /// Fraction of generated operations that write.
    pub write_ratio: f64,
    /// Seed for keys and operation streams.
    pub seed: u64,
}

impl Default for ThreadedServiceConfig {
    fn default() -> Self {
        ThreadedServiceConfig {
            replicas: 4,
            clients: 8,
            batch_size: 16,
            batch_delay: 0.002,
            checkpoint_period: 100,
            request_timeout: 2.0,
            channel_capacity: 4096,
            pipeline_window: 0,
            signature_time: 0.0,
            duration: 0.5,
            key_space: 64,
            write_ratio: 0.5,
            seed: 1,
        }
    }
}

impl ThreadedServiceConfig {
    /// The protocol knobs of a live replica (threaded or socket-served).
    pub(crate) fn protocol_params(&self) -> ProtocolParams {
        ProtocolParams {
            checkpoint_period: self.checkpoint_period,
            batch_size: self.batch_size.max(1),
            batch_delay: self.batch_delay,
            pipeline_window: self.pipeline_window,
        }
    }
}

/// Final state a replica thread reports at shutdown.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplicaSnapshot {
    /// The replica's id.
    pub id: NodeId,
    /// Absolute index of the first retained executed-log entry.
    pub log_start: u64,
    /// The retained executed-request digest log.
    pub executed: Vec<Digest>,
    /// Highest executed sequence number.
    pub last_executed: u64,
    /// Whether the replica was still awaiting a state transfer.
    pub needs_state: bool,
}

/// A live replica thread plus its private control surface: a dedicated
/// bounded channel for [`ControlMessage`]s (the trusted channel from the
/// node's privileged domain — sends *block* briefly instead of dropping,
/// so actuation commands cannot be lost to data-plane backpressure the way
/// protocol traffic can) and a kill switch for eviction/shutdown (a flag
/// cannot be lost even if the thread never polls its channels again).
struct Worker {
    thread: JoinHandle<ReplicaSnapshot>,
    kill: Arc<AtomicBool>,
    control: std::sync::mpsc::SyncSender<ControlMessage>,
    /// The replica's execution frontier, as its loop last published it (see
    /// [`ReplicaLoop::progress`]).
    progress: Arc<AtomicU64>,
}

/// Deliveries one pass of an event loop (a replica's burst, a
/// [`ClientDriver`] pump) takes from its mailbox before it sends what they
/// produced: enough that a step's worth of traffic (one reply per client per
/// replica, a commit round) leaves as one batch, bounded so the first
/// delivery's output never waits behind an unbounded backlog.
const MAILBOX_BURST: usize = 64;

/// Models the wall-clock cost of the USIG signatures one step created: the
/// replica thread sleeps before flushing the step's output, exactly like a
/// signing device would delay the sends. With a pipelined leader the sleeps
/// of successive in-flight batches overlap the peers' round trips; a serial
/// leader pays them end-to-end.
fn pay_signature_cost(signature_time: f64, created_uis: u32) {
    if signature_time > 0.0 && created_uis > 0 {
        std::thread::sleep(Duration::from_secs_f64(signature_time * created_uis as f64));
    }
}

/// The output of a burst of replica steps, in step order, waiting to leave
/// as one [`Transport::send_batch`].
#[derive(Default)]
struct Burst {
    batch: Vec<Outgoing<Message>>,
    /// The membership the pending broadcasts go to: the one after their
    /// steps.
    members: Vec<NodeId>,
}

impl Burst {
    /// Appends one step's output; `members` is the membership after the
    /// step. A step that changed the membership first sends what the
    /// earlier steps produced, to the membership they saw.
    fn push<T: Transport<Message>>(
        &mut self,
        out: StepOutput,
        from: NodeId,
        members: &[NodeId],
        transport: &mut T,
    ) {
        if out.is_empty() {
            return;
        }
        if self.members != members {
            self.flush(transport);
            self.members = members.to_vec();
        }
        self.batch.extend(out.into_batch(from));
    }

    fn flush<T: Transport<Message>>(&mut self, transport: &mut T) {
        if !self.batch.is_empty() {
            transport.send_batch(&self.members, std::mem::take(&mut self.batch));
        }
    }
}

/// One replica's event loop: the replica, its protocol mailbox, its trusted
/// control channel, its transport and the knobs it runs under. The threaded
/// cluster and the socket plane build it and call [`ReplicaLoop::run`].
pub(crate) struct ReplicaLoop<T> {
    pub(crate) replica: Replica,
    pub(crate) mailbox: Receiver<Delivery<Message>>,
    pub(crate) control_rx: Receiver<ControlMessage>,
    pub(crate) transport: T,
    pub(crate) params: ProtocolParams,
    pub(crate) request_timeout: f64,
    pub(crate) signature_time: f64,
    pub(crate) tuning: Option<Arc<SharedTuning>>,
    /// Where each pass publishes the replica's `last_executed`, or 0 while
    /// it awaits state: the frontier a JOIN or EVICT sends (see
    /// [`ControlMessage::Reconfigure`]). `Relaxed`: the number publishes no
    /// other data.
    pub(crate) progress: Arc<AtomicU64>,
    /// Scratch for the commit trace [`replica_on_message`] writes; cleared
    /// after every step.
    pub(crate) trace: Vec<CommitRecord>,
}

impl<T: Transport<Message> + WallClock> ReplicaLoop<T> {
    /// Runs [`ReplicaLoop::pass`] until the replica leaves or `stop` or
    /// `kill` is set, and returns the replica's shutdown snapshot.
    ///
    /// A burst hands its output to the transport in one call and sends
    /// exactly what flushing after every step would:
    ///
    /// * **(a) Same order per (sender, recipient).** Each step's output is
    ///   appended in step order, its broadcasts before its unicasts, so no
    ///   step's unicast is overtaken by a later step's broadcast.
    /// * **(b) Same recipients.** Each broadcast goes to the membership after
    ///   its own step: a step that changes the membership first sends the
    ///   earlier steps' output (see [`Burst::push`]).
    /// * **Signing.** With `signature_time > 0`, a step that created USIG
    ///   signatures ends the burst: the earlier steps' output leaves first,
    ///   then the replica sleeps the step's signing delay and sends its
    ///   output. Every signed message thus leaves after exactly its own
    ///   cumulative signing delay, as the pipelined-window model assumes.
    pub(crate) fn run(mut self, stop: &AtomicBool, kill: &AtomicBool) -> ReplicaSnapshot {
        while self.pass() && !stop.load(Ordering::Relaxed) && !kill.load(Ordering::Relaxed) {}
        ReplicaSnapshot {
            id: self.replica.id,
            log_start: self.replica.log_start,
            needs_state: self.replica.awaits_state(),
            last_executed: self.replica.last_executed,
            executed: self.replica.executed,
        }
    }

    /// One pass of [`ReplicaLoop::run`]: reads the clock once, drains the
    /// control channel, waits at most min(2 ms, deadline − now) for a burst
    /// and runs [`replica_on_timer`] once the deadline has passed, whether or
    /// not a delivery arrived. `false` once the replica is evicted or its
    /// mailbox is gone.
    fn pass(&mut self) -> bool {
        // Autotuned batching knobs take effect at the next pass: the
        // AutotuneLoop publishes through the shared atomics (the live-plane
        // half of the online actuation; the simulated cluster's
        // `set_batch_config` is the deterministic twin).
        if let Some(tuning) = self.tuning.as_ref() {
            self.params.batch_size = tuning.batch_size();
            self.params.batch_delay = tuning.batch_delay();
        }
        let now = self.transport.now();
        // The trusted control channel drains first: recovery and
        // reconfiguration reach the replica even when its protocol mailbox
        // is saturated (and even when it is crashed/Silent — a compromise
        // cannot sever the privileged domain's channel).
        while let Ok(command) = self.control_rx.try_recv() {
            let (mut out, command) = (StepOutput::default(), Message::Control(command));
            let (replica, params, trace) = (&mut self.replica, &self.params, &mut self.trace);
            replica_on_message(
                replica,
                CONTROL_PLANE_ID,
                command,
                now,
                params,
                trace,
                &mut out,
            );
            trace.clear();
            self.send(out);
        }
        if self.replica.evicted {
            return false;
        }
        let deadline = replica_deadline(&self.replica, &self.params, self.request_timeout, now);
        let wait = Duration::from_secs_f64((deadline - now).clamp(0.0, 0.002));
        match self.mailbox.recv_timeout(wait) {
            Ok(first) => {
                let drained = self.step_burst(first);
                // Keep the transport's mailbox-depth gauge (the autotune
                // backpressure signal) accurate: one update per burst.
                self.transport.note_received(drained);
                if self.replica.evicted {
                    return false;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return false,
        }
        if now >= deadline {
            let mut out = StepOutput::default();
            let timeout = self.request_timeout;
            replica_on_timer(&mut self.replica, now, &self.params, timeout, &mut out);
            self.send(out);
        }
        let replica = &self.replica;
        let progress = if replica.awaits_state() {
            0
        } else {
            replica.last_executed
        };
        self.progress.store(progress, Ordering::Relaxed);
        true
    }

    /// Steps `first` and the deliveries already waiting behind it, up to
    /// [`MAILBOX_BURST`] in all, and hands what they produced to the transport
    /// in one call, by the rules of [`ReplicaLoop::run`]. Returns how many
    /// deliveries it drained.
    fn step_burst(&mut self, first: Delivery<Message>) -> usize {
        let (replica, transport) = (&mut self.replica, &mut self.transport);
        let from = replica.id;
        let mut burst = Burst::default();
        let mut drained = 1;
        let mut delivery = first;
        loop {
            // A crashed or Silent replica drops protocol traffic (the gate the
            // simulated cluster applies at dispatch). Control commands arrive
            // on the dedicated channel; a `Message::Control` seen here came
            // over the droppable data plane and gets no special treatment.
            if matches!(delivery.message, Message::Control(_))
                || !(replica.crashed || replica.byzantine == ByzantineMode::Silent)
            {
                let mut out = StepOutput::default();
                replica_on_message(
                    replica,
                    delivery.from,
                    delivery.message,
                    delivery.time,
                    &self.params,
                    &mut self.trace,
                    &mut out,
                );
                // The commit trace is a simulation-harness hook; nothing reads
                // it here, and letting it accumulate would grow per-thread
                // memory for the run's whole duration.
                self.trace.clear();
                if self.signature_time > 0.0 && out.created_uis > 0 {
                    burst.flush(transport);
                    pay_signature_cost(self.signature_time, out.created_uis);
                    out.flush(transport, from, &replica.membership);
                    return drained;
                }
                burst.push(out, from, &replica.membership, transport);
                if replica.evicted {
                    break;
                }
            }
            if drained == MAILBOX_BURST {
                break;
            }
            let Ok(next) = self.mailbox.try_recv() else {
                break;
            };
            drained += 1;
            delivery = next;
        }
        burst.flush(transport);
        drained
    }

    /// Sends one step's output after its signing delay.
    fn send(&mut self, out: StepOutput) {
        pay_signature_cost(self.signature_time, out.created_uis);
        out.flush(
            &mut self.transport,
            self.replica.id,
            &self.replica.membership,
        );
    }
}

/// A clonable, always-current view of the running cluster's membership,
/// shared between the cluster (which reconfigures it) and the client driver
/// (which broadcasts requests to it).
#[derive(Debug, Clone)]
pub struct MembershipView {
    inner: Arc<RwLock<Vec<NodeId>>>,
}

impl MembershipView {
    /// A view over a membership that is fixed for the lifetime of the run
    /// (no reconfiguration source) — the multi-process socket client uses
    /// this, as remote reconfigurations reach it through PEER updates, not
    /// through a shared lock.
    pub fn fixed(members: Vec<NodeId>) -> Self {
        MembershipView {
            inner: Arc::new(RwLock::new(members)),
        }
    }

    /// The current membership.
    pub fn current(&self) -> Vec<NodeId> {
        self.inner.read().expect("membership lock").clone()
    }

    /// The size of the current membership: the live client's reply quorum,
    /// like the simulated client's, is a function of it.
    pub fn size(&self) -> usize {
        self.inner.read().expect("membership lock").len()
    }
}

/// A MinBFT cluster running as a concurrent service — one OS thread per
/// replica over bounded channels — with the live actuation surface of the
/// two-level control plane: per-node recovery, scripted compromise, and
/// JOIN/EVICT reconfiguration of the running membership.
pub struct ThreadedCluster {
    config: ThreadedServiceConfig,
    params: ProtocolParams,
    hub: ThreadedTransport<Message>,
    control: TransportHandle<Message>,
    directory: KeyDirectory,
    membership: Arc<RwLock<Vec<NodeId>>>,
    epoch: u64,
    next_node_id: NodeId,
    workers: HashMap<NodeId, Worker>,
    finished: Vec<ReplicaSnapshot>,
    stop: Arc<AtomicBool>,
    /// The shared tuning state every replica thread re-reads each loop
    /// iteration. Initialized from the static configuration, so without an
    /// autotune loop the cluster behaves exactly as before.
    tuning: Arc<SharedTuning>,
}

impl ThreadedCluster {
    /// Spawns the initial replica threads.
    ///
    /// # Panics
    ///
    /// Panics if the configuration asks for fewer than 2 replicas.
    pub fn new(config: &ThreadedServiceConfig) -> Self {
        assert!(config.replicas >= 2, "MinBFT needs at least two replicas");
        let membership: Vec<NodeId> = (0..config.replicas as NodeId).collect();
        let mut directory = KeyDirectory::new();
        for &id in &membership {
            directory.register(&KeyPair::derive(id, config.seed));
        }
        let params = config.protocol_params();
        let hub: ThreadedTransport<Message> = ThreadedTransport::new(config.channel_capacity);
        let control = hub.handle();
        let tuning = Arc::new(SharedTuning::new(
            params.batch_size,
            params.batch_delay,
            config.clients.max(1),
        ));
        let mut cluster = ThreadedCluster {
            config: *config,
            params,
            hub,
            control,
            directory,
            membership: Arc::new(RwLock::new(membership.clone())),
            epoch: 0,
            next_node_id: membership.len() as NodeId,
            workers: HashMap::new(),
            finished: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            tuning,
        };
        for &id in &membership {
            let replica = Replica::new(
                id,
                membership.clone(),
                cluster.directory.clone(),
                config.seed,
            );
            cluster.spawn(replica);
        }
        cluster
    }

    fn spawn(&mut self, replica: Replica) {
        let id = replica.id;
        // The trusted control channel: small and drained with priority
        // every loop iteration, so a (briefly) blocking send from the
        // control plane is bounded by one 2 ms poll interval.
        let (control_tx, control_rx) = std::sync::mpsc::sync_channel(64);
        let node = ReplicaLoop {
            replica,
            mailbox: self.hub.register(id),
            control_rx,
            transport: self.hub.handle(),
            params: self.params,
            request_timeout: self.config.request_timeout,
            signature_time: self.config.signature_time,
            tuning: Some(Arc::clone(&self.tuning)),
            progress: Arc::default(),
            trace: Vec::new(),
        };
        let progress = Arc::clone(&node.progress);
        let stop = Arc::clone(&self.stop);
        let kill = Arc::new(AtomicBool::new(false));
        let kill_clone = Arc::clone(&kill);
        let thread = std::thread::spawn(move || node.run(&stop, &kill_clone));
        self.workers.insert(
            id,
            Worker {
                thread,
                kill,
                control: control_tx,
                progress,
            },
        );
    }

    /// Delivers a control command on `node`'s trusted channel. Blocks for
    /// at most one replica poll interval when the (small) channel is full;
    /// returns `false` only when the replica thread is gone.
    fn send_control(&self, node: NodeId, command: ControlMessage) -> bool {
        match self.workers.get(&node) {
            Some(worker) => worker.control.send(command).is_ok(),
            None => false,
        }
    }

    /// The current membership (shared view, reconfiguration-aware).
    fn membership_view(&self) -> MembershipView {
        MembershipView {
            inner: Arc::clone(&self.membership),
        }
    }

    /// The current membership as a plain vector.
    pub fn membership(&self) -> Vec<NodeId> {
        self.membership.read().expect("membership lock").clone()
    }

    /// Number of live replicas.
    pub fn num_replicas(&self) -> usize {
        self.membership.read().expect("membership lock").len()
    }

    /// A sender handle onto the cluster's transport.
    pub fn handle(&self) -> TransportHandle<Message> {
        self.hub.handle()
    }

    /// Registers a pool of client identities onto one shared mailbox (for a
    /// driver thread).
    fn register_clients(&mut self, clients: &[NodeId]) -> Receiver<crate::net::Delivery<Message>> {
        self.hub.register_shared(clients)
    }

    /// Wall-clock seconds since the cluster started.
    pub fn now(&self) -> f64 {
        self.control.now()
    }

    /// Transport traffic counters.
    pub fn stats(&self) -> TransportStats {
        self.hub.stats()
    }

    /// The shared tuning state of the cluster: hand it (plus
    /// [`ThreadedCluster::mailbox_depth`] as the gauge) to an autotune
    /// loop (`core::controlplane::autotune::AutotuneLoop`) to close the
    /// data-plane feedback loop live.
    pub fn tuning(&self) -> Arc<SharedTuning> {
        Arc::clone(&self.tuning)
    }

    /// Deliveries queued across all replica/client mailboxes — the
    /// backpressure gauge of the autotune loop.
    pub fn mailbox_depth(&self) -> u64 {
        self.hub.mailbox_depth()
    }

    /// Actuates a live recovery of `node`: delivers the
    /// [`ControlMessage::Recover`] command on the trusted control channel
    /// (reliable — unlike protocol traffic it cannot be dropped by
    /// backpressure). Returns `false` for unknown nodes; `true` means the
    /// command was **delivered**, at which point the replica's injected
    /// misbehaviour ends (phase one seizes it for the privileged domain)
    /// while the state rebuild completes asynchronously — it pulls
    /// transfers, re-announcing until one covering its own frontier lands,
    /// and wipes-and-adopts atomically. A run that ends mid-rebuild
    /// surfaces as `needs_state` in the replica's shutdown snapshot.
    pub fn recover(&mut self, node: NodeId) -> bool {
        self.membership().contains(&node) && self.send_control(node, ControlMessage::Recover)
    }

    /// Scripted intrusion injection: sets `node`'s Byzantine mode (what the
    /// IDS observation channel of the control plane will detect).
    pub fn compromise(&mut self, node: NodeId, mode: ByzantineMode) -> bool {
        self.membership().contains(&node)
            && self.send_control(node, ControlMessage::Compromise { mode })
    }

    /// JOIN reconfiguration of the running cluster: registers a mailbox for
    /// a [`Replica::newcomer`], spawns its thread, and sends the new
    /// configuration epoch to every member, the newcomer last; existing
    /// replicas run the reconfiguration view change on receipt, and the
    /// newcomer pulls state. Returns the new replica's id.
    pub fn join(&mut self) -> NodeId {
        let id = self.next_node_id;
        self.next_node_id += 1;
        self.epoch += 1;
        self.directory
            .register(&KeyPair::derive(id, self.config.seed));
        let membership = {
            let mut members = self.membership.write().expect("membership lock");
            members.push(id);
            members.clone()
        };
        let (directory, seed) = (self.directory.clone(), self.config.seed);
        self.spawn(Replica::newcomer(
            id,
            membership.clone(),
            directory,
            seed,
            self.epoch,
        ));
        self.reconfigure(&membership, None);
        id
    }

    /// EVICT reconfiguration of the running cluster: sends the shrunk
    /// membership to the survivors and then to the evicted replica, kills
    /// and joins the evicted replica's thread, and unregisters its mailbox.
    /// Returns `false` for unknown nodes.
    pub fn evict(&mut self, node: NodeId) -> bool {
        let membership = {
            let mut members = self.membership.write().expect("membership lock");
            if !members.contains(&node) {
                return false;
            }
            members.retain(|&id| id != node);
            members.clone()
        };
        self.epoch += 1;
        self.reconfigure(&membership, Some(node));
        if let Some(worker) = self.workers.remove(&node) {
            // The kill switch backstops the graceful exit (e.g. a thread
            // that already stopped polling its channels).
            worker.kill.store(true, Ordering::Relaxed);
            self.finished
                .push(worker.thread.join().expect("replica thread panicked"));
        }
        self.hub.unregister(node);
        true
    }

    /// Sends the current epoch, `membership` and the members' execution
    /// frontier (the highest `last_executed` their loops published) to
    /// every member, then to `evicted`.
    fn reconfigure(&self, membership: &[NodeId], evicted: Option<NodeId>) {
        let published = membership.iter().filter_map(|id| self.workers.get(id));
        let command = ControlMessage::Reconfigure {
            epoch: self.epoch,
            membership: membership.to_vec(),
            frontier: (published.map(|w| w.progress.load(Ordering::Relaxed)))
                .max()
                .unwrap_or(0),
        };
        for &member in membership.iter().chain(&evicted) {
            self.send_control(member, command.clone());
        }
    }

    /// Stops every replica thread and returns all final snapshots (live
    /// replicas plus previously evicted ones).
    pub fn shutdown(mut self) -> Vec<ReplicaSnapshot> {
        self.stop.store(true, Ordering::Relaxed);
        let mut snapshots = std::mem::take(&mut self.finished);
        for (_, worker) in self.workers.drain() {
            worker.kill.store(true, Ordering::Relaxed);
            snapshots.push(worker.thread.join().expect("replica thread panicked"));
        }
        snapshots.sort_by_key(|s| s.id);
        snapshots
    }
}

/// Aggregate outcome of a [`ClientDriver`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientReport {
    /// Requests answered by an f+1 reply quorum.
    pub completed: u64,
    /// Per-request latencies in seconds.
    pub latencies: Vec<f64>,
    /// Digests of every completed request (the drain-accounting hook: each
    /// must appear exactly once in every replica's log that covers it).
    pub completed_digests: Vec<Digest>,
}

impl ClientReport {
    /// Mean completed-request latency (0 when nothing completed).
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
        }
    }
}

/// The closed-loop client population of the threaded service, movable into
/// its own thread so a control loop can run beside it. Reads the membership
/// through a [`MembershipView`], so reconfigurations take effect on the
/// next submission. Generic over the transport (defaulting to the
/// in-process channel hub), so the same driver plays the client population
/// over TCP sockets (see [`crate::socket`]).
pub struct ClientDriver<T = TransportHandle<Message>> {
    /// Indexed by `id − CLIENT_ID_BASE`: each client and the stream it
    /// draws its operations from. Clients at or beyond the autotuned
    /// concurrency cap sit out until the cap rises again.
    clients: Vec<(Client, OpStream)>,
    completed_digests: Vec<Digest>,
    mailbox: Receiver<crate::net::Delivery<Message>>,
    transport: T,
    membership: MembershipView,
    request_timeout: f64,
    /// When present, the driver obeys the autotuned concurrency cap
    /// (clients beyond it idle) and feeds completion latencies and
    /// retransmission counts back into the shared tuning state.
    tuning: Option<Arc<SharedTuning>>,
}

impl ClientDriver {
    /// Builds a driver with `clients` closed-loop clients over `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if no client is requested.
    pub fn new(cluster: &mut ThreadedCluster, clients: usize) -> Self {
        assert!(clients >= 1, "the driver needs at least one client");
        let config = cluster.config;
        let streams: Vec<OpStream> = (0..clients)
            .map(|index| {
                OpStream::new(
                    config.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    config.key_space,
                    config.write_ratio,
                )
            })
            .collect();
        let client_ids: Vec<NodeId> = (0..clients).map(|i| CLIENT_ID_BASE + i as NodeId).collect();
        let mailbox = cluster.register_clients(&client_ids);
        ClientDriver::over_transport(
            cluster.handle(),
            mailbox,
            cluster.membership_view(),
            streams,
            config.request_timeout,
        )
    }
}

impl<T: Transport<Message> + WallClock> ClientDriver<T> {
    /// Builds a driver directly over a transport endpoint: `mailbox` is the
    /// shared receive side all `streams.len()` client identities were
    /// registered onto, and `membership` names the replicas requests go to.
    /// This is the constructor the socket service plane uses — the cluster
    /// lives in other processes, so there is no [`ThreadedCluster`] to hand
    /// over — and the one [`ClientDriver::new`] builds on.
    ///
    /// # Panics
    ///
    /// Panics if no stream is provided.
    pub fn over_transport(
        transport: T,
        mailbox: Receiver<crate::net::Delivery<Message>>,
        membership: MembershipView,
        streams: Vec<OpStream>,
        request_timeout: f64,
    ) -> Self {
        assert!(!streams.is_empty(), "the driver needs at least one client");
        let clients = (streams.into_iter().enumerate())
            .map(|(i, stream)| (Client::new(CLIENT_ID_BASE + i as NodeId, None), stream))
            .collect();
        ClientDriver {
            clients,
            completed_digests: Vec::new(),
            mailbox,
            transport,
            membership,
            request_timeout,
            tuning: None,
        }
    }

    /// Attaches the self-tuning hooks: the driver submits only through the
    /// first `tuning.concurrency()` clients (re-read on every decision
    /// point, so AutotuneLoop updates take effect immediately), reports
    /// completion latencies into the shared window, and — when `budget` is
    /// set — runs every client's retransmissions through a retry token
    /// bucket.
    pub fn tuned(mut self, tuning: Arc<SharedTuning>, budget: Option<RetryBudgetConfig>) -> Self {
        self.tuning = Some(tuning);
        for (client, _) in &mut self.clients {
            client.set_retry_budget(budget);
        }
        self
    }

    /// The concurrency cap currently in force (all clients when untuned).
    fn concurrency_cap(&self) -> usize {
        self.tuning
            .as_ref()
            .map_or(self.clients.len(), |tuning| tuning.concurrency())
    }

    /// Runs the closed loop for `duration` wall-clock seconds: every client
    /// keeps exactly one request in flight, replacing completed requests
    /// immediately and retransmitting stalled ones.
    pub fn run_for(&mut self, duration: f64) {
        let start = Instant::now();
        let mut outbox = Vec::new();
        self.on_timers(self.transport.now(), self.concurrency_cap(), &mut outbox);
        self.send_requests(outbox);
        while start.elapsed().as_secs_f64() < duration {
            self.pump(true);
        }
    }

    /// Whether no client has a request in flight.
    fn idle(&self) -> bool {
        self.clients.iter().all(|(c, _)| c.outstanding().is_none())
    }

    /// Drains the in-flight requests without submitting new ones: keeps
    /// collecting replies (and retransmitting) until no client has an
    /// outstanding request or `deadline` seconds elapse. Returns whether
    /// the drain completed.
    pub fn drain(&mut self, deadline: f64) -> bool {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < deadline {
            if self.idle() {
                return true;
            }
            self.pump(false);
        }
        self.idle()
    }

    /// Broadcasts the queued requests to the current membership as one
    /// batch.
    fn send_requests(&mut self, outbox: Vec<Outgoing<Message>>) {
        if !outbox.is_empty() {
            let members = self.membership.current();
            self.transport.send_batch(&members, outbox);
        }
    }

    /// One mailbox pump: waits up to 2 ms for a reply, reads the clock once,
    /// processes the replies waiting (completing and, in closed-loop mode,
    /// resubmitting), runs every client's timer, and sends everything that
    /// produced as one batch. The timers run on every pump, so a stalled
    /// request is retransmitted on time however busy the mailbox is. The
    /// membership size (the reply quorum's input) is read and the
    /// mailbox-depth gauge lowered once per pump.
    fn pump(&mut self, resubmit: bool) {
        let first = self.mailbox.recv_timeout(Duration::from_millis(2));
        let now = self.transport.now();
        let cap = if resubmit { self.concurrency_cap() } else { 0 };
        let mut outbox = Vec::new();
        if let Ok(first) = first {
            // The membership lock also contends with reconfiguration.
            let members = self.membership.size();
            let mut drained = 1;
            self.on_delivery(first, members, now, cap, &mut outbox);
            while drained < MAILBOX_BURST {
                let Ok(delivery) = self.mailbox.try_recv() else {
                    break;
                };
                drained += 1;
                self.on_delivery(delivery, members, now, cap, &mut outbox);
            }
            self.transport.note_received(drained);
        }
        self.on_timers(now, cap, &mut outbox);
        self.send_requests(outbox);
    }

    /// Counts one delivered reply towards its client's quorum; a completed
    /// request is recorded and, for a client below `cap`, replaced on
    /// `outbox`.
    fn on_delivery(
        &mut self,
        delivery: Delivery<Message>,
        members: usize,
        now: f64,
        cap: usize,
        outbox: &mut Vec<Outgoing<Message>>,
    ) {
        let Message::Reply {
            request_id, value, ..
        } = delivery.message
        else {
            return;
        };
        let Some(index) = client_index(delivery.to).filter(|&i| i < self.clients.len()) else {
            return;
        };
        let (client, stream) = &mut self.clients[index];
        let Some(request) = client.on_reply(delivery.from, request_id, value, members, now) else {
            return;
        };
        self.completed_digests.push(request.digest());
        if let (Some(tuning), Some(&latency)) = (&self.tuning, client.latencies().last()) {
            tuning.observe_latency(latency);
        }
        if index < cap {
            let request = client.start(stream.next_op(), now);
            outbox.push(Outgoing::Broadcast(client.id(), Message::Request(request)));
        }
    }

    /// Runs every client's retransmission timer at `now` (replies or requests
    /// may have been dropped by full mailboxes), and starts a request on
    /// every idle client below `cap`: one a raised concurrency cap lets back
    /// in.
    fn on_timers(&mut self, now: f64, cap: usize, outbox: &mut Vec<Outgoing<Message>>) {
        for (index, (client, stream)) in self.clients.iter_mut().enumerate() {
            match client.on_timer(now, self.request_timeout) {
                TimerAction::Retransmit(request) => {
                    if let Some(tuning) = self.tuning.as_ref() {
                        tuning.note_retransmission();
                    }
                    outbox.push(Outgoing::Broadcast(client.id(), Message::Request(request)));
                }
                TimerAction::Suppressed => {
                    if let Some(tuning) = self.tuning.as_ref() {
                        tuning.note_suppressed();
                    }
                }
                TimerAction::Idle if client.outstanding().is_none() && index < cap => {
                    let request = client.start(stream.next_op(), now);
                    outbox.push(Outgoing::Broadcast(client.id(), Message::Request(request)));
                }
                TimerAction::Idle => {}
            }
        }
    }

    /// The aggregate client-side outcome so far.
    pub fn report(&self) -> ClientReport {
        ClientReport {
            completed: self.clients.iter().map(|(c, _)| c.completed()).sum(),
            latencies: (self.clients.iter())
                .flat_map(|(c, _)| c.latencies().iter().copied())
                .collect(),
            completed_digests: self.completed_digests.clone(),
        }
    }
}

/// Offset-aware prefix consistency over the final replica logs (the same
/// check [`crate::MinBftCluster::logs_are_consistent`] applies to the
/// simulated cluster).
pub fn snapshots_consistent(snapshots: &[ReplicaSnapshot]) -> bool {
    for (i, a) in snapshots.iter().enumerate() {
        for b in snapshots.iter().skip(i + 1) {
            if crate::minbft::first_log_divergence(
                a.log_start,
                &a.executed,
                b.log_start,
                &b.executed,
            )
            .is_some()
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests;
