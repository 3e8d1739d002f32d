//! The group executor: everything one MinBFT group does under a fault
//! schedule.
//!
//! A `Group` is the harness-side state of one simulated
//! [`MinBftCluster`]: the ground-truth supervisors of the fault schedule,
//! the per-group oracles, the schedule cursor, the client bookkeeping and
//! the group's slice of the trace. The driver ([`crate::simnet::sharded`])
//! owns one per shard and adds the client driver, the control plane and
//! the fleet layers. Nothing here touches a control plane:
//! schedule-driven recoveries and evictions are buffered as
//! `PlaneNote`s for the driver to drain serially.

use crate::controlplane::actuator::ClusterActuator;
use crate::controlplane::NodeReport;
use crate::error::Result;
use crate::node_model::{NodeModel, NodeParameters, NodeState};
use crate::observation::ObservationModel;
use crate::simnet::adversary;
use crate::simnet::oracle::{InvariantChecker, InvariantKind, Violation};
use crate::simnet::schedule::{
    FaultEvent, ScheduleConfig, ScheduledFault, MAX_REPLICAS, STEP_DURATION_S,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tolerance_consensus::crypto::Digest;
use tolerance_consensus::minbft::{MinBftCluster, Operation};
use tolerance_consensus::{ByzantineMode, NodeId};

/// The per-step snapshot that makes up the run's event trace. Two runs are
/// considered identical exactly when their serialized traces are identical;
/// the simulated clock is recorded via its IEEE-754 bits so the comparison
/// is exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The step this record closes.
    pub step: u32,
    /// `f64::to_bits` of the simulated time after the step.
    pub time_bits: u64,
    /// Membership after the step.
    pub membership: Vec<NodeId>,
    /// Total commit records so far.
    pub commits: u64,
    /// View changes so far.
    pub view_changes: u64,
    /// Completed client requests so far.
    pub completed: u64,
    /// Messages handed to the network so far.
    pub net_sent: u64,
    /// Replicas currently marked faulty by the schedule.
    pub faulty: Vec<NodeId>,
}

/// Aggregate outcome of a run (the scenario-facing summary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimnetOutcome {
    /// Steps actually executed (less than the horizon when a violation
    /// stopped the run early).
    pub steps: u64,
    /// Client requests issued.
    pub issued: u64,
    /// Client requests completed.
    pub completed: u64,
    /// Replica recoveries performed (controller-driven and scheduled).
    pub recoveries: u64,
    /// Mean steps from compromise to recovery (0 when no compromise).
    pub mean_recovery_steps: f64,
    /// Distinct sequence numbers committed.
    pub committed_sequences: u64,
    /// Completed / issued.
    pub availability: f64,
}

/// The aggregate outcome of `groups` after `steps` executed steps.
pub(crate) fn outcome(steps: u64, groups: &[(&MinBftCluster, &Group)]) -> SimnetOutcome {
    let issued: u64 = groups.iter().map(|(_, g)| g.issued).sum();
    let completed: u64 = groups.iter().map(|(c, g)| g.completed(c)).sum();
    let delays: Vec<u32> = groups
        .iter()
        .flat_map(|(_, g)| g.recovery_delays.iter().copied())
        .collect();
    SimnetOutcome {
        // The steps actually executed (a violation stops the run early,
        // and the recovery-frequency metric divides by this).
        steps,
        issued,
        completed,
        recoveries: groups.iter().map(|(_, g)| g.recoveries).sum(),
        mean_recovery_steps: if delays.is_empty() {
            0.0
        } else {
            delays.iter().map(|&d| f64::from(d)).sum::<f64>() / delays.len() as f64
        },
        committed_sequences: groups
            .iter()
            .map(|(c, _)| InvariantChecker::committed_sequences(c))
            .sum(),
        availability: if issued == 0 {
            1.0
        } else {
            completed as f64 / issued as f64
        },
    }
}

/// Per-replica supervision state maintained by the harness (the ground
/// truth of the fault schedule; the belief-tracking controllers live in the
/// control plane).
#[derive(Default)]
pub(crate) struct Supervisor {
    /// `Crashed` exactly while a scheduled crash stands (crashed replicas
    /// cannot be compromised, and a recovery resets the state).
    state: NodeState,
    compromised_at: Option<u32>,
    /// IDS-signature degradation of the current compromise: `0.0` samples
    /// the full compromised alert distribution, larger values mix it toward
    /// healthy (protocol-aware attackers are quieter, see
    /// [`adversary::attacker_ids_lambda`]).
    ids_lambda: f64,
}

impl Supervisor {
    fn marked(&self) -> bool {
        self.state != NodeState::Healthy
    }
}

/// A control-plane side effect of a scheduled event, buffered until the
/// owning harness drains it (the fleet's parallel phases must never touch
/// the shared control plane).
pub(crate) enum PlaneNote {
    /// A replica recovered on schedule; its controller resets.
    Recovered(NodeId),
    /// A replica was evicted; its controller is dropped.
    Forget(NodeId),
}

/// The control-side inputs of a harness: the paper's alert model plus the
/// per-λ degraded models of the adversary zoo, and the one seeded stream
/// that the IDS sampling and then the system controller draw from.
pub(crate) struct IdsChannel {
    base: ObservationModel,
    degraded: Vec<(u64, ObservationModel)>,
    pub(crate) rng: StdRng,
}

impl IdsChannel {
    /// The channel of the run seeded `seed`, and the node model whose
    /// observation model it samples.
    pub(crate) fn new(seed: u64) -> Result<(Self, NodeModel)> {
        let base = ObservationModel::paper_default();
        let node_model = NodeModel::new(NodeParameters::default(), base.clone())?;
        let channel = IdsChannel {
            degraded: adversary::degraded_model_table(&base)?,
            base,
            rng: StdRng::seed_from_u64(seed ^ 0x51e7_c0de_0bad_cafe),
        };
        Ok((channel, node_model))
    }
}

/// The stabilized network of `config`: partitions heal and the bounded
/// delay profile holds (at GST, and at the start of the settle phase).
pub(crate) fn restore_network(config: &ScheduleConfig, cluster: &mut MinBftCluster) {
    cluster.heal_network();
    cluster.set_network_config(config.network);
}

/// How long one settle round lets a group run before the next check.
pub(crate) const SETTLE_WINDOW_S: f64 = 5.0_f64.max(STEP_DURATION_S * 4.0);

/// Re-triggers state transfer for replicas whose transfer was lost to a
/// storm or partition and for replicas whose log lags behind (in-flight
/// quorums they missed cannot be replayed; recovery is how the
/// architecture catches such replicas up, cf. the BTR constraint).
pub(crate) fn catch_up_stragglers(cluster: &mut MinBftCluster) {
    let members: Vec<NodeId> = cluster.membership().to_vec();
    let longest = members
        .iter()
        .filter_map(|&id| cluster.executed_len(id))
        .max()
        .unwrap_or(0);
    for id in members {
        let lagging = cluster
            .executed_len(id)
            .map(|len| len + 2 < longest)
            .unwrap_or(false);
        if cluster.needs_state(id) || lagging {
            cluster.recover_replica(id);
        }
    }
}

/// One group's executor state. Everything a group mutates while it runs
/// lives here or in its [`MinBftCluster`], which is what lets the fleet run
/// groups in parallel.
#[derive(Default)]
pub(crate) struct Group {
    supervisors: BTreeMap<NodeId, Supervisor>,
    checker: InvariantChecker,
    added_stack: Vec<NodeId>,
    recoveries: u64,
    recovery_delays: Vec<u32>,
    /// Burst requests scheduled but not yet submitted by the driver.
    pub(crate) pending_bursts: u32,
    /// Every client whose completions this group contributes.
    pub(crate) clients: Vec<NodeId>,
    /// Step at which each client's currently outstanding request was
    /// submitted (pruned on completion) — the bookkeeping of the
    /// liveness-after-GST oracle. Clients submit at most one request at a
    /// time, so per-client tracking is exact.
    outstanding_since: BTreeMap<NodeId, u32>,
    /// Cursor into the group's fault schedule (events are step-sorted).
    cursor: usize,
    /// Control-plane effects of scheduled events since the last drain.
    pub(crate) plane_notes: Vec<PlaneNote>,
    issued: u64,
    /// The group's slice of the trace.
    pub(crate) trace: Vec<TraceRecord>,
}

impl Group {
    pub(crate) fn new(initial_replicas: usize, clients: Vec<NodeId>) -> Self {
        Group {
            supervisors: (0..initial_replicas as NodeId)
                .map(|id| (id, Supervisor::default()))
                .collect(),
            clients,
            ..Group::default()
        }
    }

    /// Submits `operation` on `client` and records it for the validity and
    /// liveness-after-GST oracles; returns the request digest.
    pub(crate) fn submit(
        &mut self,
        cluster: &mut MinBftCluster,
        client: NodeId,
        operation: Operation,
        step: u32,
    ) -> Digest {
        let digest = cluster.submit(client, operation).digest();
        self.checker.record_submission(digest);
        self.issued += 1;
        self.outstanding_since.insert(client, step);
        digest
    }

    /// The actuation surface of this group at `step`.
    pub(crate) fn actuator<'a>(
        &'a mut self,
        cluster: &'a mut MinBftCluster,
        step: u32,
    ) -> HarnessActuator<'a> {
        HarnessActuator {
            cluster,
            group: self,
            step,
        }
    }

    /// Marks a live member compromised from `step` on with IDS signature
    /// degradation `ids_lambda`; `false` for non-members and crashed
    /// replicas, which cannot be compromised.
    fn compromise(
        &mut self,
        cluster: &MinBftCluster,
        node: NodeId,
        step: u32,
        ids_lambda: f64,
    ) -> bool {
        if !cluster.membership().contains(&node) || cluster.is_crashed(node) {
            return false;
        }
        if let Some(supervisor) = self.supervisors.get_mut(&node) {
            supervisor.state = NodeState::Compromised;
            supervisor.compromised_at.get_or_insert(step);
            supervisor.ids_lambda = ids_lambda;
        }
        true
    }

    /// Applies one scheduled fault. Control-plane effects are buffered as
    /// [`PlaneNote`]s.
    fn apply_event(
        &mut self,
        config: &ScheduleConfig,
        cluster: &mut MinBftCluster,
        event: &FaultEvent,
        step: u32,
    ) {
        match event {
            FaultEvent::Partition { group_a, group_b } => {
                cluster.partition_network(group_a, group_b);
            }
            FaultEvent::Heal => cluster.heal_network(),
            // Storms perturb the *ambient* profile of the step (the
            // asynchronous profile before GST), and RestoreNetwork restores
            // it, so a storm never ends the pre-GST phase.
            FaultEvent::LossStorm { loss_rate } => {
                let mut network = config.ambient_network(step);
                network.loss_rate = network.loss_rate.max(*loss_rate);
                cluster.set_network_config(network.clamped());
            }
            FaultEvent::DelayStorm { latency, jitter } => {
                let mut network = config.ambient_network(step);
                network.latency = network.latency.max(*latency);
                network.jitter = network.jitter.max(*jitter);
                cluster.set_network_config(network.clamped());
            }
            FaultEvent::RestoreNetwork => {
                cluster.set_network_config(config.ambient_network(step));
            }
            FaultEvent::CrashReplica { node } => {
                if cluster.membership().contains(node) {
                    cluster.crash_replica(*node);
                    if let Some(supervisor) = self.supervisors.get_mut(node) {
                        supervisor.state = NodeState::Crashed;
                    }
                }
            }
            FaultEvent::RecoverReplica { node } => {
                if self.actuator(cluster, step).recover(*node) {
                    self.plane_notes.push(PlaneNote::Recovered(*node));
                }
            }
            FaultEvent::ByzantineFlip { node, mode } => {
                // A flipped replica perturbs the IDS observation stream too
                // (with a heavily degraded signature) — it is misbehaving,
                // not invisible.
                if self.compromise(cluster, *node, step, adversary::BYZANTINE_FLIP_IDS_LAMBDA) {
                    cluster.set_byzantine(*node, *mode);
                }
            }
            FaultEvent::IntrusionBurst { node, mode } => {
                // A full compromise has the loudest signature.
                if self.compromise(cluster, *node, step, 0.0) {
                    cluster.set_byzantine(*node, *mode);
                }
            }
            FaultEvent::AdoptAttacker { node, attacker } => {
                let lambda = adversary::attacker_ids_lambda(*attacker);
                if self.compromise(cluster, *node, step, lambda) {
                    cluster.set_attacker(*node, Some(*attacker));
                }
            }
            FaultEvent::AddReplica => {
                if cluster.num_replicas() < MAX_REPLICAS {
                    let id = cluster.add_replica();
                    self.supervisors.insert(id, Supervisor::default());
                    self.added_stack.push(id);
                }
            }
            FaultEvent::EvictReplica { node } => {
                let target = node.or_else(|| self.added_stack.pop());
                if let Some(target) = target {
                    if cluster.membership().contains(&target) && cluster.num_replicas() > 3 {
                        cluster.evict_replica(target);
                        self.supervisors.remove(&target);
                        self.checker.forget_replica(target);
                        self.plane_notes.push(PlaneNote::Forget(target));
                    }
                }
            }
            FaultEvent::ClientBurst { requests } => {
                self.pending_bursts += requests;
            }
            FaultEvent::InjectDoubleCommit { node } => {
                cluster.inject_double_commit(*node);
            }
        }
    }

    /// Applies every fault event of this group due at `step`, advancing
    /// the schedule cursor.
    pub(crate) fn apply_due_events(
        &mut self,
        config: &ScheduleConfig,
        events: &[ScheduledFault],
        cluster: &mut MinBftCluster,
        step: u32,
    ) {
        while let Some(fault) = events.get(self.cursor) {
            if fault.step > step {
                break;
            }
            self.cursor += 1;
            self.apply_event(config, cluster, &fault.event, step);
        }
    }

    /// The group's IDS input for one control tick: one weighted-alert draw
    /// per reporting replica, in membership order; schedule-crashed and
    /// unsupervised replicas are silent.
    pub(crate) fn observations(
        &self,
        cluster: &MinBftCluster,
        ids: &mut IdsChannel,
    ) -> Vec<(NodeId, NodeReport<'static>)> {
        let mut observations = Vec::with_capacity(cluster.num_replicas());
        for &id in cluster.membership() {
            let report = match self.supervisors.get(&id) {
                // Protocol-aware attackers sample from a degraded
                // compromise signature (the λ set by their event). The
                // model choice never changes how many RNG draws happen, so
                // schedules that never set a λ keep byte-identical traces.
                Some(supervisor) if supervisor.state != NodeState::Crashed => {
                    let model =
                        adversary::degraded_model(&ids.degraded, &ids.base, supervisor.ids_lambda);
                    NodeReport::Sample(model.sample(supervisor.state, &mut ids.rng))
                }
                _ => NodeReport::Silent,
            };
            observations.push((id, report));
        }
        observations
    }

    /// The safety oracles: log agreement/validity, network accounting and
    /// the recovery bound — Δ_R steps of BTR slack plus the queueing delay
    /// of the k-parallel-recovery budget, which all `fleet_replicas`
    /// replicas sharing that budget compete for.
    pub(crate) fn check_safety(
        &mut self,
        config: &ScheduleConfig,
        fleet_replicas: usize,
        cluster: &MinBftCluster,
        step: u32,
    ) -> Option<Violation> {
        if let Some(violation) = self.checker.check_logs(cluster, step) {
            return Some(violation);
        }
        if let Some(violation) = self.checker.check_network(cluster, step) {
            return Some(violation);
        }
        let bound = config.delta_r + fleet_replicas as u32 + 1;
        for (&id, supervisor) in &self.supervisors {
            if let Some(at) = supervisor.compromised_at {
                if step.saturating_sub(at) > bound {
                    return Some(Violation {
                        kind: InvariantKind::RecoveryBound,
                        step,
                        detail: format!(
                            "replica {id} compromised at step {at} still unrecovered at step \
                             {step} (bound {bound})"
                        ),
                    });
                }
            }
        }
        None
    }

    /// The liveness-after-GST oracle: under partial synchrony, every
    /// request submitted before the network stabilized must complete within
    /// the bounded post-GST window. Prunes completed requests from the
    /// bookkeeping either way.
    pub(crate) fn check_gst_liveness(
        &mut self,
        config: &ScheduleConfig,
        cluster: &MinBftCluster,
        step: u32,
    ) -> Option<Violation> {
        self.outstanding_since
            .retain(|&client, _| cluster.has_outstanding_request(client));
        let gst = config.gst?;
        if step < gst || step - gst <= config.post_gst_liveness_steps {
            return None;
        }
        let (&client, &since) = self
            .outstanding_since
            .iter()
            .find(|&(_, &since)| since < gst)?;
        Some(Violation {
            kind: InvariantKind::LivenessAfterGst,
            step,
            detail: format!(
                "client {client}'s request from step {since} (before GST at step {gst}) still \
                 uncommitted {} steps after stabilization (bound {})",
                step - gst,
                config.post_gst_liveness_steps
            ),
        })
    }

    /// The group's trace record at `step`.
    pub(crate) fn trace_record(&self, cluster: &MinBftCluster, step: u32) -> TraceRecord {
        TraceRecord {
            step,
            time_bits: cluster.now().to_bits(),
            membership: cluster.membership().to_vec(),
            commits: cluster.commit_trace().len() as u64,
            view_changes: cluster.view_changes(),
            completed: self.completed(cluster),
            net_sent: cluster.network_stats().sent,
            faulty: self
                .supervisors
                .iter()
                .filter(|(_, s)| s.marked())
                .map(|(&id, _)| id)
                .collect(),
        }
    }

    fn completed(&self, cluster: &MinBftCluster) -> u64 {
        self.clients
            .iter()
            .map(|&c| cluster.completed_requests(c))
            .sum()
    }

    /// The group's clients that still await a reply.
    pub(crate) fn outstanding(&self, cluster: &MinBftCluster) -> Vec<NodeId> {
        self.clients
            .iter()
            .copied()
            .filter(|&c| cluster.has_outstanding_request(c))
            .collect()
    }

    /// Opens the settle phase: stabilize the network and recover every
    /// replica the schedule left marked, Byzantine or crashed. No control
    /// tick follows the horizon, so the plane is not notified.
    pub(crate) fn heal_and_recover_marked(
        &mut self,
        config: &ScheduleConfig,
        cluster: &mut MinBftCluster,
    ) {
        restore_network(config, cluster);
        for id in cluster.membership().to_vec() {
            let marked = self.supervisors.get(&id).is_some_and(Supervisor::marked);
            if marked
                || cluster.byzantine_mode(id) != Some(ByzantineMode::Correct)
                || cluster.is_crashed(id)
            {
                self.actuator(cluster, config.horizon).recover(id);
            }
        }
    }
}

/// The harness-side actuator: the control planes actuate through this
/// view, which adds the fault-schedule bookkeeping (restart-vs-rebuild
/// choice, recovery-latency accounting, supervisor lifecycle) on top of the
/// simulated cluster.
pub(crate) struct HarnessActuator<'a> {
    cluster: &'a mut MinBftCluster,
    group: &'a mut Group,
    step: u32,
}

impl ClusterActuator for HarnessActuator<'_> {
    fn replica_count(&self) -> usize {
        self.cluster.num_replicas()
    }

    fn contains(&self, node: NodeId) -> bool {
        self.cluster.membership().contains(&node)
    }

    fn recover(&mut self, node: NodeId) -> bool {
        if !self.contains(node) {
            return false;
        }
        let supervisor = self.group.supervisors.get_mut(&node);
        // Fail-stop crashes restart with their state intact; everything
        // else (compromise, Byzantine behaviour, BTR refresh) is the full
        // rebuild + state transfer.
        let crashed_only = supervisor
            .as_ref()
            .is_some_and(|s| s.state == NodeState::Crashed);
        if crashed_only {
            self.cluster.restart_replica(node);
        } else {
            self.cluster.recover_replica(node);
        }
        self.group.recoveries += 1;
        if let Some(supervisor) = supervisor {
            supervisor.state = NodeState::Healthy;
            supervisor.ids_lambda = 0.0;
            if let Some(at) = supervisor.compromised_at.take() {
                self.group
                    .recovery_delays
                    .push(self.step.saturating_sub(at));
            }
        }
        true
    }

    fn join(&mut self) -> Option<NodeId> {
        let id = self.cluster.add_replica();
        self.group.supervisors.insert(id, Supervisor::default());
        self.group.added_stack.push(id);
        Some(id)
    }

    fn evict(&mut self, node: NodeId) -> bool {
        if !self.contains(node) {
            return false;
        }
        self.cluster.evict_replica(node);
        self.group.supervisors.remove(&node);
        self.group.added_stack.retain(|&n| n != node);
        true
    }
}
