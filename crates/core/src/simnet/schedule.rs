//! Seeded fault schedules: the chaos input of the harness.
//!
//! A [`FaultSchedule`] is a list of [`FaultEvent`]s pinned to discrete
//! time-steps. Schedules are either scripted by hand (regression tests,
//! counterexample replays) or drawn by [`FaultSchedule::generate`] from a
//! seed and a [`ScheduleConfig`] — the same seed always produces the same
//! schedule, which is the first half of the determinism guarantee (the
//! second half is the deterministic executor).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tolerance_consensus::{
    hybrid_fault_threshold, AttackerKind, ByzantineMode, MinBftConfig, NetworkConfig, NodeId,
    PARALLEL_RECOVERIES,
};

/// The kind of a [`FaultEvent`] (used for coverage reporting and for
/// matching violations during shrinking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultKind {
    /// A network partition between two replica groups.
    Partition,
    /// Removal of all partitions.
    Heal,
    /// A message-loss storm (the loss rate is raised network-wide).
    LossStorm,
    /// A delay storm (latency and jitter are raised network-wide).
    DelayStorm,
    /// Restoration of the base link profile after a storm.
    RestoreNetwork,
    /// A replica crash (fail-stop).
    CrashReplica,
    /// Recovery of a crashed or compromised replica.
    RecoverReplica,
    /// A direct Byzantine-mode flip of a replica (protocol-level fault
    /// without IDS-visible intrusion activity).
    ByzantineFlip,
    /// An intrusion burst: the replica is compromised *and* its IDS alert
    /// stream shifts, so the node controller can detect it.
    IntrusionBurst,
    /// Adoption of a protocol-aware attacker strategy (the adversary zoo):
    /// the replica keeps speaking the protocol but attacks it from inside,
    /// with a variant-specific (fainter) IDS signature.
    AdoptAttacker,
    /// Membership growth (JOIN reconfiguration).
    AddReplica,
    /// Membership shrink (EVICT reconfiguration).
    EvictReplica,
    /// A burst of extra client requests.
    ClientBurst,
    /// The test-only double-commit bug injection (used to validate the
    /// agreement oracle; never generated unless explicitly enabled).
    InjectDoubleCommit,
}

/// One fault to inject.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Partition `group_a` from `group_b` (both directions).
    Partition {
        /// One side of the partition.
        group_a: Vec<NodeId>,
        /// The other side.
        group_b: Vec<NodeId>,
    },
    /// Remove all partitions.
    Heal,
    /// Raise the network loss rate to `loss_rate`.
    LossStorm {
        /// The storm's message-loss probability.
        loss_rate: f64,
    },
    /// Raise latency/jitter to the given values.
    DelayStorm {
        /// Storm base latency in simulated seconds.
        latency: f64,
        /// Storm jitter bound in simulated seconds.
        jitter: f64,
    },
    /// Restore the base link profile.
    RestoreNetwork,
    /// Crash a replica.
    CrashReplica {
        /// The replica to crash.
        node: NodeId,
    },
    /// Recover a replica (restart + state transfer).
    RecoverReplica {
        /// The replica to recover.
        node: NodeId,
    },
    /// Flip a replica's Byzantine mode without IDS-visible activity.
    ByzantineFlip {
        /// The replica to flip.
        node: NodeId,
        /// The behaviour it adopts.
        mode: ByzantineMode,
    },
    /// Compromise a replica with IDS-visible intrusion activity.
    IntrusionBurst {
        /// The replica the attacker compromises.
        node: NodeId,
        /// The post-compromise behaviour.
        mode: ByzantineMode,
    },
    /// Compromise a replica with a protocol-aware attacker strategy. The
    /// replica stays protocol-speaking (its USIG keeps signing honestly)
    /// but equivocates, withholds, delays, lies as a state donor or
    /// suppresses replies, depending on the variant — each with a distinct
    /// (degraded) IDS observation signature.
    AdoptAttacker {
        /// The replica that turns attacker.
        node: NodeId,
        /// The attacker strategy it adopts.
        attacker: AttackerKind,
    },
    /// Add a fresh replica (JOIN).
    AddReplica,
    /// Evict a replica (EVICT). `None` evicts the most recently added
    /// replica, so generated schedules never shrink the initial membership.
    EvictReplica {
        /// The replica to evict, or `None` for the newest.
        node: Option<NodeId>,
    },
    /// Submit `requests` extra one-shot client requests.
    ClientBurst {
        /// Number of extra requests.
        requests: u32,
    },
    /// Inject the test-only double-commit bug into a replica.
    InjectDoubleCommit {
        /// The replica that starts corrupting its execution.
        node: NodeId,
    },
}

impl FaultEvent {
    /// The kind of this event.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultEvent::Partition { .. } => FaultKind::Partition,
            FaultEvent::Heal => FaultKind::Heal,
            FaultEvent::LossStorm { .. } => FaultKind::LossStorm,
            FaultEvent::DelayStorm { .. } => FaultKind::DelayStorm,
            FaultEvent::RestoreNetwork => FaultKind::RestoreNetwork,
            FaultEvent::CrashReplica { .. } => FaultKind::CrashReplica,
            FaultEvent::RecoverReplica { .. } => FaultKind::RecoverReplica,
            FaultEvent::ByzantineFlip { .. } => FaultKind::ByzantineFlip,
            FaultEvent::IntrusionBurst { .. } => FaultKind::IntrusionBurst,
            FaultEvent::AdoptAttacker { .. } => FaultKind::AdoptAttacker,
            FaultEvent::AddReplica => FaultKind::AddReplica,
            FaultEvent::EvictReplica { .. } => FaultKind::EvictReplica,
            FaultEvent::ClientBurst { .. } => FaultKind::ClientBurst,
            FaultEvent::InjectDoubleCommit { .. } => FaultKind::InjectDoubleCommit,
        }
    }
}

/// A fault pinned to a time-step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// The step (0-based) at which the fault fires, before the step's
    /// protocol activity.
    pub step: u32,
    /// The fault.
    pub event: FaultEvent,
}

/// Largest membership of a simulated group: generated JOINs and scheduled
/// additions stop here.
pub(crate) const MAX_REPLICAS: usize = 8;

/// Simulated seconds per time-step.
pub(crate) const STEP_DURATION_S: f64 = 1.0;

/// Configuration of schedule generation *and* of the run that executes the
/// schedule (the executor reads the cluster/controller parameters from
/// here, so a `(seed, config)` pair fully determines a run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// Initial number of replicas.
    pub initial_replicas: usize,
    /// Number of time-steps.
    pub horizon: u32,
    /// BTR period `Δ_R` of the node controllers: every replica is recovered
    /// at the latest `Δ_R` steps after its previous recovery, which is what
    /// bounds the time-to-recovery (checked by the recovery oracle).
    pub delta_r: u32,
    /// Whether the global replication controller (Algorithm 2) runs; when
    /// `false` the membership only changes through schedule events.
    pub system_controller: bool,
    /// Base replica-to-replica link profile.
    pub network: NetworkConfig,
    /// MinBFT checkpoint period (sequences between checkpoints); small
    /// values exercise log compaction + state transfer under chaos.
    #[serde(default = "default_checkpoint_period")]
    pub checkpoint_period: u64,
    /// MinBFT leader batch size (requests per PREPARE); values above 1
    /// exercise the batched pipeline under chaos.
    #[serde(default = "default_batch_size")]
    pub batch_size: usize,
    /// MinBFT pipeline window (maximum in-flight sequences ahead of
    /// execution); 0 keeps the unbounded pre-pipelining behaviour, values
    /// above 1 exercise watermark-gated concurrent proposals under chaos.
    #[serde(default)]
    pub pipeline_window: usize,
    /// Expected number of generated fault events per step.
    pub intensity: f64,
    /// Fault kinds the generator may draw (pairs like `Heal` /
    /// `RestoreNetwork` / `RecoverReplica` are implied by their openers).
    pub enabled: Vec<FaultKind>,
    /// Step at which to inject the test-only double-commit bug (never
    /// generated randomly).
    pub inject_double_commit_at: Option<u32>,
    /// Global stabilization time (GST) of a partial-synchrony schedule:
    /// before this step the network runs the asynchronous profile
    /// (`ScheduleConfig::async_network`: arbitrary delay/reorder/loss);
    /// at this step partitions heal and the base (bounded-delay) profile is
    /// restored, and the generator draws no network faults whose closer
    /// would land after it. `None` keeps the network synchronous
    /// throughout.
    #[serde(default)]
    pub gst: Option<u32>,
    /// Bound of the liveness-after-GST oracle: every client request
    /// submitted *before* GST must complete within this many post-GST
    /// steps (only checked when [`ScheduleConfig::gst`] is set).
    #[serde(default = "default_post_gst_liveness_steps")]
    pub post_gst_liveness_steps: u32,
    /// Attacker variants the generator may draw for
    /// [`FaultEvent::AdoptAttacker`] events (only consulted when
    /// [`FaultKind::AdoptAttacker`] is in `enabled`; empty means the full
    /// zoo, [`AttackerKind::ALL`]).
    #[serde(default)]
    pub attackers: Vec<AttackerKind>,
}

// What the knobs added after counterexamples were first emitted decode to
// when a document predates them (`#[serde(default..)]` above; every other
// field is required).
fn default_checkpoint_period() -> u64 {
    ScheduleConfig::default().checkpoint_period
}

fn default_batch_size() -> usize {
    ScheduleConfig::default().batch_size
}

fn default_post_gst_liveness_steps() -> u32 {
    ScheduleConfig::default().post_gst_liveness_steps
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            initial_replicas: 5,
            horizon: 40,
            delta_r: 12,
            system_controller: false,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.001,
                loss_rate: 0.0005,
            },
            checkpoint_period: 100,
            batch_size: 1,
            pipeline_window: 0,
            intensity: 0.35,
            enabled: vec![
                FaultKind::Partition,
                FaultKind::LossStorm,
                FaultKind::DelayStorm,
                FaultKind::CrashReplica,
                FaultKind::ByzantineFlip,
                FaultKind::IntrusionBurst,
                FaultKind::AddReplica,
                FaultKind::EvictReplica,
                FaultKind::ClientBurst,
            ],
            inject_double_commit_at: None,
            gst: None,
            post_gst_liveness_steps: 12,
            attackers: Vec::new(),
        }
    }
}

/// The synchrony phase a step falls into under a (possibly GST-scheduled)
/// configuration: the network-condition axis of the adversary matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum NetworkPhase {
    /// No GST configured: the bounded-delay base profile throughout.
    Sync,
    /// Before GST: arbitrary delay, reorder (jitter) and loss.
    Async,
    /// At or after GST: bounded delay again — liveness obligations resume.
    PostGst,
}

impl ScheduleConfig {
    /// The fault threshold `f` of the initial membership, which bounds how
    /// many replicas the generator keeps faulty at once.
    pub fn fault_threshold(&self) -> usize {
        hybrid_fault_threshold(self.initial_replicas, PARALLEL_RECOVERIES)
    }

    /// The cluster configuration a harness builds from this schedule
    /// configuration. Shared by the single-cluster executor and the
    /// multi-shard harness, so both sweeps exercise the *same* cluster
    /// shape — a knob mapped here reaches every harness at once.
    pub(crate) fn minbft_config(&self, seed: u64) -> MinBftConfig {
        MinBftConfig {
            initial_replicas: self.initial_replicas,
            network: self.network,
            seed,
            checkpoint_period: self.checkpoint_period,
            batch_size: self.batch_size,
            pipeline_window: self.pipeline_window,
            ..MinBftConfig::default()
        }
    }

    /// The synchrony phase of `step` under this configuration.
    fn network_phase(&self, step: u32) -> NetworkPhase {
        match self.gst {
            None => NetworkPhase::Sync,
            Some(gst) if step < gst => NetworkPhase::Async,
            Some(_) => NetworkPhase::PostGst,
        }
    }

    /// The pre-GST asynchronous link profile: the base profile with
    /// latency, jitter and loss floored high enough that delivery order,
    /// timing and completeness are effectively arbitrary relative to the
    /// protocol's timeouts.
    fn async_network(&self) -> NetworkConfig {
        NetworkConfig {
            latency: self.network.latency.max(0.04),
            jitter: self.network.jitter.max(0.03),
            loss_rate: self.network.loss_rate.max(0.10),
        }
        .clamped()
    }

    /// The ambient link profile of `step`: the asynchronous profile before
    /// GST, the base profile otherwise. Storm events perturb *this* profile
    /// and `RestoreNetwork` restores it, so a storm closing pre-GST does
    /// not end the asynchronous phase early.
    pub(crate) fn ambient_network(&self, step: u32) -> NetworkConfig {
        if self.network_phase(step) == NetworkPhase::Async {
            self.async_network()
        } else {
            self.network
        }
    }
}

/// A seeded fault schedule: the complete chaos input of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The seed the schedule was generated from (also seeds the executor).
    pub seed: u64,
    /// The scheduled faults, in non-decreasing step order.
    pub events: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// A schedule with explicit events (sorted by step, stably).
    pub fn scripted(seed: u64, mut events: Vec<ScheduledFault>) -> Self {
        events.sort_by_key(|e| e.step);
        FaultSchedule { seed, events }
    }

    /// The distinct fault kinds the schedule exercises.
    pub fn kinds(&self) -> Vec<FaultKind> {
        let mut kinds: Vec<FaultKind> = self.events.iter().map(|e| e.event.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// Generates a randomized schedule. The generator keeps the number of
    /// concurrently faulty replicas within the fault threshold `f` of the
    /// initial membership (chaos beyond `f` voids the paper's guarantees,
    /// so the invariant oracles would have nothing to check), pairs every
    /// opener with its closer (partitions heal, storms pass, crashed and
    /// compromised replicas are recovered) and only evicts replicas it
    /// previously added.
    pub fn generate(seed: u64, config: &ScheduleConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5c4e_d01e_cafe);
        let f = config.fault_threshold().max(1);
        let nodes: Vec<NodeId> = (0..config.initial_replicas as NodeId).collect();
        let mut events: Vec<ScheduledFault> = Vec::new();

        // Bookkeeping of open faults: step at which each closes.
        let mut faulty_until: Vec<(NodeId, u32)> = Vec::new();
        let mut partition_open_until: Option<u32> = None;
        let mut storm_open_until: Option<u32> = None;
        let mut added_pending = 0usize; // replicas added and not yet evicted

        // Leave the tail of the horizon quiet so closers fit inside it.
        let last_fault_step = config.horizon.saturating_sub(4);
        for step in 0..last_fault_step {
            faulty_until.retain(|&(_, until)| until > step);
            if partition_open_until.is_some_and(|until| until <= step) {
                partition_open_until = None;
            }
            if storm_open_until.is_some_and(|until| until <= step) {
                storm_open_until = None;
            }
            if rng.random::<f64>() >= config.intensity || config.enabled.is_empty() {
                continue;
            }
            let kind = config.enabled[rng.random_range(0..config.enabled.len())];
            let duration = 2 + rng.random_range(0..4u32);
            let close_step = (step + duration).min(last_fault_step);
            // Under a GST schedule the network is only adversarial before
            // GST: network faults whose closer would land after GST are
            // not drawn, so the post-GST phase keeps bounded delay (the
            // premise of the liveness-after-GST oracle).
            let network_fault_allowed = config.gst.is_none_or(|gst| close_step <= gst);
            match kind {
                FaultKind::Partition | FaultKind::Heal => {
                    if partition_open_until.is_some() || nodes.len() < 3 || !network_fault_allowed {
                        continue;
                    }
                    // Cut off a minority group of up to f replicas.
                    let cut = 1 + rng.random_range(0..f as u32) as usize;
                    let mut shuffled = nodes.clone();
                    for i in (1..shuffled.len()).rev() {
                        shuffled.swap(i, rng.random_range(0..i + 1));
                    }
                    let (minority, majority) = shuffled.split_at(cut.min(shuffled.len() - 1));
                    events.push(ScheduledFault {
                        step,
                        event: FaultEvent::Partition {
                            group_a: minority.to_vec(),
                            group_b: majority.to_vec(),
                        },
                    });
                    events.push(ScheduledFault {
                        step: close_step,
                        event: FaultEvent::Heal,
                    });
                    partition_open_until = Some(close_step);
                }
                FaultKind::LossStorm | FaultKind::DelayStorm | FaultKind::RestoreNetwork => {
                    if storm_open_until.is_some() || !network_fault_allowed {
                        continue;
                    }
                    let event = if kind == FaultKind::DelayStorm {
                        FaultEvent::DelayStorm {
                            latency: 0.02 + rng.random::<f64>() * 0.05,
                            jitter: 0.01 + rng.random::<f64>() * 0.03,
                        }
                    } else {
                        FaultEvent::LossStorm {
                            loss_rate: 0.05 + rng.random::<f64>() * 0.25,
                        }
                    };
                    events.push(ScheduledFault { step, event });
                    events.push(ScheduledFault {
                        step: close_step,
                        event: FaultEvent::RestoreNetwork,
                    });
                    storm_open_until = Some(close_step);
                }
                FaultKind::CrashReplica
                | FaultKind::ByzantineFlip
                | FaultKind::IntrusionBurst
                | FaultKind::RecoverReplica => {
                    if faulty_until.len() >= f {
                        continue;
                    }
                    let free: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|n| faulty_until.iter().all(|&(m, _)| m != *n))
                        .collect();
                    if free.is_empty() {
                        continue;
                    }
                    let node = free[rng.random_range(0..free.len())];
                    let mode = match rng.random_range(0..2u8) {
                        0 => ByzantineMode::Silent,
                        _ => ByzantineMode::Arbitrary,
                    };
                    let event = match kind {
                        FaultKind::CrashReplica => FaultEvent::CrashReplica { node },
                        FaultKind::ByzantineFlip => FaultEvent::ByzantineFlip { node, mode },
                        _ => FaultEvent::IntrusionBurst { node, mode },
                    };
                    events.push(ScheduledFault { step, event });
                    events.push(ScheduledFault {
                        step: close_step,
                        event: FaultEvent::RecoverReplica { node },
                    });
                    faulty_until.push((node, close_step));
                }
                FaultKind::AdoptAttacker => {
                    if faulty_until.len() >= f {
                        continue;
                    }
                    let free: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|n| faulty_until.iter().all(|&(m, _)| m != *n))
                        .collect();
                    if free.is_empty() {
                        continue;
                    }
                    let node = free[rng.random_range(0..free.len())];
                    let pool: &[AttackerKind] = if config.attackers.is_empty() {
                        &AttackerKind::ALL
                    } else {
                        &config.attackers
                    };
                    let attacker = pool[rng.random_range(0..pool.len())];
                    events.push(ScheduledFault {
                        step,
                        event: FaultEvent::AdoptAttacker { node, attacker },
                    });
                    events.push(ScheduledFault {
                        step: close_step,
                        event: FaultEvent::RecoverReplica { node },
                    });
                    faulty_until.push((node, close_step));
                }
                FaultKind::AddReplica => {
                    if config.initial_replicas + added_pending >= MAX_REPLICAS {
                        continue;
                    }
                    events.push(ScheduledFault {
                        step,
                        event: FaultEvent::AddReplica,
                    });
                    added_pending += 1;
                }
                FaultKind::EvictReplica => {
                    if added_pending == 0 {
                        continue;
                    }
                    events.push(ScheduledFault {
                        step,
                        event: FaultEvent::EvictReplica { node: None },
                    });
                    added_pending -= 1;
                }
                FaultKind::ClientBurst => {
                    events.push(ScheduledFault {
                        step,
                        event: FaultEvent::ClientBurst {
                            requests: 1 + rng.random_range(0..3u32),
                        },
                    });
                }
                FaultKind::InjectDoubleCommit => {} // never drawn randomly
            }
        }
        if let Some(step) = config.inject_double_commit_at {
            let node = nodes[rng.random_range(0..nodes.len())];
            events.push(ScheduledFault {
                step: step.min(last_fault_step),
                event: FaultEvent::InjectDoubleCommit { node },
            });
        }
        FaultSchedule::scripted(seed, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let config = ScheduleConfig::default();
        let a = FaultSchedule::generate(7, &config);
        let b = FaultSchedule::generate(7, &config);
        assert_eq!(a, b);
        let c = FaultSchedule::generate(8, &config);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn generated_schedules_respect_the_fault_threshold() {
        let config = ScheduleConfig {
            intensity: 0.9,
            horizon: 120,
            ..ScheduleConfig::default()
        };
        let f = config.fault_threshold();
        for seed in 0..20 {
            let schedule = FaultSchedule::generate(seed, &config);
            // Replay the bookkeeping: concurrent faulty replicas never
            // exceed f, and every opener has a closer.
            let mut open: Vec<NodeId> = Vec::new();
            for fault in &schedule.events {
                match &fault.event {
                    FaultEvent::CrashReplica { node }
                    | FaultEvent::ByzantineFlip { node, .. }
                    | FaultEvent::IntrusionBurst { node, .. } => {
                        assert!(!open.contains(node), "seed {seed}: double fault on {node}");
                        open.push(*node);
                        assert!(open.len() <= f, "seed {seed}: {} > f = {f}", open.len());
                    }
                    FaultEvent::RecoverReplica { node } => {
                        open.retain(|n| n != node);
                    }
                    _ => {}
                }
            }
            assert!(open.is_empty(), "seed {seed}: unrecovered faults {open:?}");
        }
    }

    #[test]
    fn schedules_serialize_to_parseable_json() {
        // Typed decoding is covered by `ShardedCounterexample::from_json`; here we
        // check the rendered document is well-formed and stable.
        let schedule = FaultSchedule::generate(
            3,
            &ScheduleConfig {
                intensity: 0.8,
                ..ScheduleConfig::default()
            },
        );
        let json = serde_json::to_string(&schedule).unwrap();
        let value = serde_json::parse_value(&json).unwrap();
        let rerendered = serde_json::to_string(&value).unwrap();
        assert_eq!(json, rerendered);
    }

    #[test]
    fn kinds_reports_distinct_coverage() {
        let schedule = FaultSchedule::scripted(
            0,
            vec![
                ScheduledFault {
                    step: 1,
                    event: FaultEvent::Heal,
                },
                ScheduledFault {
                    step: 0,
                    event: FaultEvent::AddReplica,
                },
                ScheduledFault {
                    step: 2,
                    event: FaultEvent::Heal,
                },
            ],
        );
        // Sorted by step and deduplicated kinds.
        assert_eq!(schedule.events[0].event, FaultEvent::AddReplica);
        assert_eq!(
            schedule.kinds(),
            vec![FaultKind::Heal, FaultKind::AddReplica]
        );
    }
}
