//! The simulation driver: deterministic chaos over one or many MinBFT
//! groups behind a key router, scheduled event-driven per shard. A single
//! group is a one-shard fleet ([`ShardedScheduleConfig::single_group`]).
//!
//! One run wires together:
//!
//! * a [`ShardedSimService`] — S independent simulated MinBFT groups, each
//!   over its own deterministic network seeded from a **split stream** of
//!   the fleet seed ([`shard_seed`]);
//! * per-shard chaos: one [`FaultSchedule`] per shard, generated from the
//!   same split streams, so every shard sees its own partitions, storms,
//!   crashes, intrusion bursts and churn while the whole fleet stays a
//!   pure function of `(seed, config)`;
//! * the `FleetControlPlane` — per-shard node controllers competing for
//!   one **global** recovery budget `k`, plus (optionally) one system
//!   controller per fleet;
//! * a routed client workload — either the closed-loop driver (one keyed
//!   request per shard per step) or, with
//!   [`ShardedScheduleConfig::workload`], a seeded **open-loop trace
//!   workload** (`TraceWorkload`: diurnal arrival rate, Zipf key
//!   popularity, bounded backlog, no trace files) — and a cross-shard
//!   **MultiPut driver** that launches two-round transactions and
//!   deliberately abandons some of them mid-protocol;
//! * the full oracle suite per shard (agreement, validity, recovery bound,
//!   network accounting, settle-phase liveness) **plus** the fleet-level
//!   `RoutingChecker` and an **atomicity** check over every MultiPut.
//!
//! # One group executor, scheduled per shard
//!
//! What a single group does under its schedule is the group executor
//! (`crate::simnet::group`). This module adds the fleet layers (routing,
//! MultiPut, the fleet control plane, autotune) and the schedule: each
//! shard is an independent **sub-executor** (own cluster, `Group`,
//! client driver and trace buffer) that free-runs on the persistent
//! `WorkerPool` and synchronizes only at deterministic **barriers**:
//!
//! ```text
//!   barrier step b (every `fleet_tick_interval` steps)
//!   ─ A ─ per shard ∥ : GST restore · due fault events (plane effects
//!                        buffered as notes)
//!   ─ B ─ serial      : drain plane notes (shard-major) · fleet
//!                        controller tick (global budget k)
//!   ─ C ─ per shard ∥ : routed client driving (routing records buffered)
//!   ─ D ─ serial      : merge routing records (shard-major) · cross-shard
//!                        MultiPut rounds
//!   ─ E ─ per shard ∥ : free-run steps b..b+interval — events, clients,
//!                        simulation, local oracles, trace
//!   ─ F ─ serial      : canonical violation resolution · routing oracle
//! ```
//!
//! **Determinism contract.** Every phase either runs serially in shard
//! index order or touches exclusively per-shard state, and buffered
//! cross-shard effects are drained shard-major at the next barrier — so
//! which worker ran which shard is invisible. There is one code path: the
//! worker count ([`run_sharded_schedule_on`]) only decides how many shards
//! advance concurrently inside a parallel phase (one worker runs them
//! inline), and the whole report is identical for every count. The trace
//! depends on `fleet_tick_interval` (configuration), never on the workers.
//!
//! On violation, [`find_sharded_counterexample`] shrinks the schedules
//! with a greedy drop-one-event search and packages a replayable
//! [`ShardedCounterexample`] (seed + per-shard schedules + config as JSON).
//!
//! [`find_sharded_counterexample`]: crate::simnet::find_sharded_counterexample
//! [`ShardedCounterexample`]: crate::simnet::ShardedCounterexample

use crate::controlplane::autotune::{
    Admission, AutotuneConfig, AutotuneController, AutotuneDecision, AutotuneObservation,
};
use crate::controlplane::fleet::FleetControlPlane;
use crate::controlplane::runtime::ControlPlaneConfig;
use crate::error::Result;
use crate::runtime::WorkerPool;
use crate::simnet::group::{self, Group, IdsChannel, PlaneNote, SimnetOutcome, TraceRecord};
use crate::simnet::oracle::{InvariantKind, RoutingChecker, Violation};
use crate::simnet::schedule::{
    FaultSchedule, ScheduleConfig, ScheduledFault, MAX_REPLICAS, STEP_DURATION_S,
};
use crate::simnet::workload::{TraceWorkload, TraceWorkloadConfig, BACKLOG_CAP};
use serde::{Deserialize, Serialize};
use tolerance_consensus::crypto::Digest;
use tolerance_consensus::metrics::LatencyHistogram;
use tolerance_consensus::minbft::{MinBftCluster, Operation};
use tolerance_consensus::sharded::{
    shard_seed, KeyPartitioner, ShardedSimConfig, ShardedSimService,
};
use tolerance_consensus::NodeId;

/// Configuration of a multi-shard run: the per-shard chaos/cluster knobs
/// plus the fleet-level routing and MultiPut workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedScheduleConfig {
    /// Number of independent MinBFT groups.
    pub shards: usize,
    /// The per-shard schedule/cluster configuration. `system_controller`
    /// enables the fleet-level controller, whose recovery budget `k` is
    /// global.
    pub base: ScheduleConfig,
    /// Key space of the routed client workload (each shard's drivers use
    /// the keys it owns within this range).
    pub key_space: u32,
    /// Steps between MultiPut launches (`0` disables the MultiPut driver).
    pub multi_put_interval: u32,
    /// Keys per MultiPut transaction (spanning at least two shards when
    /// the fleet has them).
    pub multi_put_keys: usize,
    /// Steps between fleet barriers: the fleet controller ticks and the
    /// cross-shard MultiPut rounds advance only at barrier steps, and
    /// shards free-run in between. `1` (the default) ticks the fleet every
    /// step; larger windows trade control-plane reaction time for
    /// per-shard parallelism. Part of the *configuration* — the trace
    /// depends on it, never on the worker count.
    #[serde(default = "default_fleet_tick_interval")]
    pub fleet_tick_interval: u32,
    /// Open-loop trace workload; `None` keeps the closed-loop driver (one
    /// keyed request per shard per step plus burst backlog).
    #[serde(default)]
    pub workload: Option<TraceWorkloadConfig>,
    /// Data-plane self-tuning: when set, every shard runs its own
    /// deterministic [`AutotuneController`] ticked at
    /// `window_steps`-aligned steps — AIMD on the shard's leader batch
    /// knobs (re-clamped online through the fragmentation floor),
    /// concurrency capping the routed pool scan, and backpressure deciding
    /// admission from the shard's simulated-network depth. The decision
    /// trace is part of the run report, so AIMD determinism is pinned by
    /// the same byte-identity contract as the event trace.
    #[serde(default)]
    pub autotune: Option<AutotuneConfig>,
}

/// What a counterexample document written before `fleet_tick_interval`
/// existed decodes it to.
fn default_fleet_tick_interval() -> u32 {
    ShardedScheduleConfig::default().fleet_tick_interval
}

impl Default for ShardedScheduleConfig {
    fn default() -> Self {
        ShardedScheduleConfig {
            shards: 2,
            base: ScheduleConfig {
                horizon: 24,
                ..ScheduleConfig::default()
            },
            key_space: 64,
            multi_put_interval: 6,
            multi_put_keys: 2,
            fleet_tick_interval: 1,
            workload: None,
            autotune: None,
        }
    }
}

impl ShardedScheduleConfig {
    /// A single MinBFT group under `base`: one shard whose routed pool
    /// draws on the whole 64-key space, no MultiPut driver, no trace
    /// workload, no autotune, and the control plane ticked every step. Every
    /// single-group run — the smoke and adversary suites, the `simnet/*`
    /// scenarios, the archived counterexamples — is this one-shard fleet.
    pub fn single_group(base: ScheduleConfig) -> Self {
        ShardedScheduleConfig {
            shards: 1,
            base,
            key_space: 64,
            multi_put_interval: 0,
            multi_put_keys: 2,
            fleet_tick_interval: 1,
            workload: None,
            autotune: None,
        }
    }

    fn fleet_config(&self) -> ControlPlaneConfig {
        ControlPlaneConfig {
            delta_r: Some(self.base.delta_r),
            system_controller: self.base.system_controller,
            min_replicas: 4,
            max_replicas: MAX_REPLICAS,
            fault_threshold: self.base.fault_threshold(),
            availability_target: 0.9,
            node_survival_probability: 0.95,
        }
    }
}

/// The fleet's chaos input: one per-shard schedule drawn from each shard's
/// split stream of the fleet seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedFaultSchedule {
    /// The fleet seed.
    pub seed: u64,
    /// One schedule per shard (index = shard).
    pub shards: Vec<FaultSchedule>,
}

impl ShardedFaultSchedule {
    /// Generates the per-shard schedules from the fleet seed's split
    /// streams (same seed → same fleet of schedules).
    pub fn generate(seed: u64, config: &ShardedScheduleConfig) -> Self {
        ShardedFaultSchedule {
            seed,
            shards: (0..config.shards.max(1))
                .map(|shard| FaultSchedule::generate(shard_seed(seed, shard), &config.base))
                .collect(),
        }
    }

    /// The schedule of a single group
    /// ([`ShardedScheduleConfig::single_group`]):
    /// `FaultSchedule::generate(seed, &config.base)` as shard 0's schedule,
    /// so a single-group seed names the schedule it always named, where
    /// [`ShardedFaultSchedule::generate`] would draw shard 0's from the
    /// seed's split stream.
    pub fn single_group(seed: u64, config: &ShardedScheduleConfig) -> Self {
        FaultSchedule::generate(seed, &config.base).into()
    }

    /// Total scheduled events across all shards.
    #[cfg(test)]
    fn total_events(&self) -> usize {
        self.shards.iter().map(|s| s.events.len()).sum()
    }
}

impl From<FaultSchedule> for ShardedFaultSchedule {
    /// A single group's schedule: `schedule` as shard 0's, under its seed.
    fn from(schedule: FaultSchedule) -> Self {
        ShardedFaultSchedule {
            seed: schedule.seed,
            shards: vec![schedule],
        }
    }
}

/// One autotune window tick of one shard: the step it fired at and the
/// knob set it actuated. Serialized into the run report so controller
/// determinism is replay-checkable exactly like the event trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutotuneTickRecord {
    /// The step the window tick fired at.
    pub step: u32,
    /// The decision the controller actuated for the window.
    pub decision: AutotuneDecision,
}

/// The result of executing one fleet schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedRunReport {
    /// Fleet-wide aggregate outcome.
    pub outcome: SimnetOutcome,
    /// Per-shard event traces (`trace[shard][step]`), byte-identical for
    /// identical `(seed, config)` pairs — regardless of the worker count.
    pub trace: Vec<Vec<TraceRecord>>,
    /// MultiPut transactions launched / fully committed.
    pub multi_puts: (u64, u64),
    /// Per-shard autotune decision traces (`autotune[shard][tick]`); empty
    /// vectors when [`ShardedScheduleConfig::autotune`] is off. Part of the
    /// report's equality, so the determinism suite pins AIMD decisions
    /// across worker counts.
    pub autotune: Vec<Vec<AutotuneTickRecord>>,
    /// The first invariant violation, if any (the run stops there).
    pub violation: Option<Violation>,
}

/// Executes `schedule` against a freshly built fleet configured by
/// `config`, with one scheduler worker per available CPU.
///
/// # Errors
///
/// Propagates model-construction and LP failures; invariant violations are
/// reported inside the [`ShardedRunReport`] (the shrinker needs them as
/// data).
pub fn run_sharded_schedule(
    schedule: &ShardedFaultSchedule,
    config: &ShardedScheduleConfig,
) -> Result<ShardedRunReport> {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    run_sharded_schedule_on(schedule, config, workers)
}

/// Executes `schedule` with at most `workers` shards advancing
/// concurrently. Every worker count produces the identical report —
/// choose by wall-clock needs only (the determinism suite forces the grid).
///
/// # Errors
///
/// Propagates model-construction and LP failures.
pub fn run_sharded_schedule_on(
    schedule: &ShardedFaultSchedule,
    config: &ShardedScheduleConfig,
    workers: usize,
) -> Result<ShardedRunReport> {
    ShardedHarness::new(schedule, config, workers.max(1))?.run()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum OpState {
    InFlight,
    Done,
}

/// How a MultiPut transaction's driving client "crashes" mid-protocol
/// (derived deterministically from the transaction id, so the chaos is
/// replayable).
#[derive(Debug, Clone, Copy, PartialEq)]
enum TxAbandon {
    /// The client survives the whole protocol.
    None,
    /// The client crashes after every reserve completed, before any
    /// commit: nothing may ever become observable.
    BeforeCommit,
    /// The client crashes after committing the first key only: the settle
    /// phase must roll the remaining idempotent commits forward.
    MidCommit,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TxPhase {
    Reserving,
    /// All reserves landed, the client crashed before any commit.
    AbandonedReserved,
    Committing,
    /// The first commit landed, the client crashed before the rest.
    AbandonedMidCommit,
    Done,
}

struct MultiPutTx {
    tx: u64,
    pairs: Vec<(u32, u64)>,
    phase: TxPhase,
    abandon: TxAbandon,
    /// In-flight operations: `(operation, shard, client, state)` — each on
    /// its own dedicated client, so completion is exactly "the client has
    /// no outstanding request".
    ops: Vec<(Operation, usize, NodeId, OpState)>,
}

/// One shard's sub-executor state: the shared group executor plus the
/// fleet-only driver state. Everything a shard mutates while free-running
/// between barriers lives here (or in its [`MinBftCluster`]) — nothing
/// else, which is what makes the parallel phases deterministic.
struct ShardState {
    /// The group executor; `group.clients` is the general pool plus every
    /// transaction client created on this shard.
    group: Group,
    owned_keys: Vec<u32>,
    /// The shard's general routed client pool (fixed at construction; the
    /// free-client scan runs over it in pool order).
    pool: Vec<NodeId>,
    /// Routed submissions made inside a parallel phase; merged into the
    /// fleet [`RoutingChecker`] shard-major at the next barrier.
    routing_pending: Vec<Digest>,
    /// The earliest local oracle violation of the current free-run window:
    /// `(step, kind-rank, violation)` with rank 0 = safety oracles (logs /
    /// network / recovery bound) and rank 1 = GST liveness.
    window_violation: Option<(u32, u8, Violation)>,
    /// The seeded open-loop workload generator, when configured.
    workload: Option<TraceWorkload>,
    /// The shard's data-plane autotune controller, when configured.
    tuner: Option<AutotuneController>,
    /// The admission verdict in force (always `Accept` untuned).
    admission: Admission,
    /// The concurrency cap on the routed pool scan (`None` = whole pool).
    concurrency: Option<usize>,
    /// Cumulative suppressed-retransmission count at the last tick (the
    /// tick feeds the controller the per-window delta).
    last_suppressed: u64,
    /// The shard's autotune decision trace (one record per window tick).
    decisions: Vec<AutotuneTickRecord>,
}

struct ShardedHarness<'a> {
    schedule: &'a ShardedFaultSchedule,
    config: &'a ShardedScheduleConfig,
    service: ShardedSimService,
    states: Vec<ShardState>,
    plane: FleetControlPlane,
    ids: IdsChannel,
    routing: RoutingChecker,
    transactions: Vec<MultiPutTx>,
    next_tx: u64,
    /// How many shards advance concurrently inside a parallel phase.
    workers: usize,
}

impl<'a> ShardedHarness<'a> {
    fn new(
        schedule: &'a ShardedFaultSchedule,
        config: &'a ShardedScheduleConfig,
        workers: usize,
    ) -> Result<Self> {
        let service = ShardedSimService::new(&ShardedSimConfig {
            shards: config.shards.max(1),
            cluster: config.base.minbft_config(schedule.seed),
        });
        let (ids, node_model) = IdsChannel::new(schedule.seed)?;
        let max_total = MAX_REPLICAS * config.shards.max(1);
        let plane = FleetControlPlane::with_model(config.fleet_config(), max_total, node_model)?;
        let partitioner = *service.partitioner();
        let states: Vec<ShardState> = (0..service.num_shards())
            .map(|shard| {
                let owned_keys = partitioner.owned_keys(shard, config.key_space.max(1));
                let workload = config.workload.as_ref().map(|workload_config| {
                    TraceWorkload::new(
                        shard_seed(schedule.seed, shard),
                        &owned_keys,
                        workload_config,
                    )
                });
                let pool = service.pool_clients(shard).to_vec();
                ShardState {
                    group: Group::new(config.base.initial_replicas, pool.clone()),
                    owned_keys,
                    pool,
                    routing_pending: Vec::new(),
                    window_violation: None,
                    workload,
                    tuner: config.autotune.as_ref().map(AutotuneController::new),
                    admission: Admission::Accept,
                    concurrency: None,
                    last_suppressed: 0,
                    decisions: Vec::new(),
                }
            })
            .collect();
        Ok(ShardedHarness {
            schedule,
            config,
            service,
            states,
            plane,
            ids,
            routing: RoutingChecker::new(),
            transactions: Vec::new(),
            next_tx: 1,
            workers,
        })
    }

    /// Runs `f(shard, cluster, state)` for every shard — inline in shard
    /// index order with one worker, otherwise across the persistent
    /// [`WorkerPool`]. Every parallel phase of the run and of the settle
    /// drain goes through here.
    fn for_each_shard<F>(&mut self, f: F)
    where
        F: Fn(usize, &mut MinBftCluster, &mut ShardState) + Sync,
    {
        let mut shards: Vec<(&mut MinBftCluster, &mut ShardState)> = self
            .service
            .shards_mut()
            .iter_mut()
            .zip(self.states.iter_mut())
            .collect();
        if self.workers <= 1 || shards.len() <= 1 {
            for (shard, pair) in shards.iter_mut().enumerate() {
                f(shard, pair.0, pair.1);
            }
        } else {
            WorkerPool::global().for_each_mut(&mut shards, self.workers, |shard, pair| {
                f(shard, pair.0, pair.1);
            });
        }
    }

    /// Submits an operation at `step` on a freshly created dedicated client
    /// of the owning shard and returns `(shard, client)` (serial phases
    /// only).
    fn submit_dedicated(&mut self, operation: Operation, step: u32) -> (usize, NodeId) {
        let key = operation.key().expect("transaction operations are keyed");
        let shard = self.service.owner(key);
        let client = self.service.add_client(shard);
        let group = &mut self.states[shard].group;
        group.clients.push(client);
        let digest = group.submit(self.service.shard_mut(shard), client, operation, step);
        self.routing.record_submission(digest, shard);
        (shard, client)
    }

    /// Drains the plane notes buffered by the parallel phases, shard-major.
    fn drain_plane_notes(&mut self) {
        for (shard, state) in self.states.iter_mut().enumerate() {
            for note in state.group.plane_notes.drain(..) {
                match note {
                    PlaneNote::Recovered(node) => {
                        self.plane.controller(shard, node).notify_recovered();
                    }
                    PlaneNote::Forget(node) => self.plane.forget(shard, node),
                }
            }
        }
    }

    /// Merges the routed-submission records buffered by the parallel
    /// phases into the fleet routing oracle, shard-major.
    fn merge_routing_records(&mut self) {
        for (shard, state) in self.states.iter_mut().enumerate() {
            for digest in state.routing_pending.drain(..) {
                self.routing.record_submission(digest, shard);
            }
        }
    }

    /// One fleet control tick: per-shard IDS observations (shard-major, one
    /// draw per reporting replica) through the [`FleetControlPlane`].
    fn control_tick(&mut self, step: u32) {
        let mut shards: Vec<(&mut MinBftCluster, &mut ShardState)> = self
            .service
            .shards_mut()
            .iter_mut()
            .zip(self.states.iter_mut())
            .collect();
        let observations: Vec<_> = shards
            .iter()
            .map(|(cluster, state)| state.group.observations(cluster, &mut self.ids))
            .collect();
        let mut storage: Vec<_> = shards
            .iter_mut()
            .map(|(cluster, state)| state.group.actuator(cluster, step))
            .collect();
        let mut actuators: Vec<_> = storage.iter_mut().collect();
        self.plane
            .tick(&observations, &mut actuators, &mut self.ids.rng);
    }

    /// Submits a keyed operation on the first free pool client of this
    /// shard, recording it locally (validity oracle + routing buffer). The
    /// scan covers the pool's autotuned concurrency prefix — the AIMD
    /// concurrency law caps how many pool clients may hold an outstanding
    /// request at once.
    fn submit_shard_put(
        cluster: &mut MinBftCluster,
        state: &mut ShardState,
        operation: Operation,
        step: u32,
    ) -> bool {
        let cap = state.concurrency.unwrap_or(state.pool.len()).max(1);
        let Some(client) = state
            .pool
            .iter()
            .take(cap)
            .copied()
            .find(|&c| !cluster.has_outstanding_request(c))
        else {
            return false;
        };
        let digest = state.group.submit(cluster, client, operation, step);
        state.routing_pending.push(digest);
        true
    }

    /// The deterministic per-window autotune tick of one shard: at
    /// `window_steps`-aligned steps the controller observes the drained
    /// completion latencies (p99 over the window), the simulated network's
    /// in-flight depth and the suppressed-retransmission delta, then
    /// actuates the shard's batch knobs — re-clamped through the cluster's
    /// own [`tolerance_consensus::MinBftConfig::validate`] floor — and the
    /// concurrency/admission verdicts the client driving below obeys.
    /// Pure per-shard state, so the parallel phases stay deterministic.
    fn autotune_tick(cluster: &mut MinBftCluster, state: &mut ShardState, step: u32) {
        let window = match state.tuner.as_ref() {
            Some(tuner) => tuner.config().window_steps.max(1),
            None => return,
        };
        if !step.is_multiple_of(window) {
            return;
        }
        let latencies = cluster.take_latencies();
        let mut histogram = LatencyHistogram::new();
        for &latency in &latencies {
            histogram.record(latency);
        }
        let (_, suppressed_total) = cluster.retransmission_stats();
        let suppressed = suppressed_total.saturating_sub(state.last_suppressed);
        state.last_suppressed = suppressed_total;
        let tuner = state.tuner.as_mut().expect("checked above");
        let decision = tuner.observe(AutotuneObservation {
            completed: latencies.len() as u64,
            p99: histogram.quantile(0.99),
            queue_depth: cluster.network_in_flight() as u64,
            suppressed,
        });
        debug_assert!(tuner.actuation_validates());
        cluster.set_batch_config(decision.batch_size, decision.batch_delay);
        state.admission = decision.admission;
        state.concurrency = Some(decision.concurrency);
        state.decisions.push(AutotuneTickRecord { step, decision });
    }

    /// Drives one shard's routed clients for one step: the closed-loop
    /// driver (one keyed request plus burst backlog), or the open-loop
    /// [`TraceWorkload`] when configured. The autotune tick (when
    /// configured) runs first, so a window's decision governs the window's
    /// own demand.
    fn drive_shard_clients(cluster: &mut MinBftCluster, state: &mut ShardState, step: u32) {
        Self::autotune_tick(cluster, state, step);
        if let Some(mut workload) = state.workload.take() {
            // Open loop: the offered arrivals (plus any deferred demand and
            // scheduled bursts) are submitted while pool clients are free;
            // the rest queues up to the backlog cap and beyond it is shed.
            // Backpressure intervenes first: `Delay` defers the whole
            // step's demand to the backlog, `Shed` drops it outright.
            let mut demand = workload
                .arrivals(step)
                .saturating_add(state.group.pending_bursts);
            match state.admission {
                Admission::Shed => demand = 0,
                Admission::Delay => {}
                Admission::Accept => {
                    while demand > 0 {
                        let key = workload.draw_key();
                        let value = 0x2000_0000 + u64::from(step) * 64 + u64::from(demand);
                        let operation = Operation::Put { key, value };
                        if !Self::submit_shard_put(cluster, state, operation, step) {
                            break;
                        }
                        demand -= 1;
                    }
                }
            }
            state.group.pending_bursts = demand.min(BACKLOG_CAP);
            state.workload = Some(workload);
            return;
        }
        match state.admission {
            Admission::Shed => {
                state.group.pending_bursts = 0;
                return;
            }
            Admission::Delay => return,
            Admission::Accept => {}
        }
        let key = state.owned_keys[step as usize % state.owned_keys.len()];
        let operation = Operation::Put {
            key,
            value: u64::from(step) + 1,
        };
        if !Self::submit_shard_put(cluster, state, operation, step) {
            return;
        }
        let mut bursts = state.group.pending_bursts;
        while bursts > 0 {
            let key = state.owned_keys[(step as usize + bursts as usize) % state.owned_keys.len()];
            let operation = Operation::Put {
                key,
                value: 0x1000_0000 + u64::from(step) * 16 + u64::from(bursts),
            };
            if !Self::submit_shard_put(cluster, state, operation, step) {
                break;
            }
            bursts -= 1;
        }
        state.group.pending_bursts = bursts;
    }

    /// The keys of transaction `tx`: a fresh, transaction-private range
    /// (so the atomicity oracle can compare against 0/value without a
    /// linearizability checker), spanning at least two shards when the
    /// fleet has them.
    fn tx_keys(partitioner: &KeyPartitioner, tx: u64, count: usize) -> Vec<u32> {
        let base = 0x4000_0000u32 + (tx as u32) * 1024;
        let count = count.max(1);
        let mut keys: Vec<u32> = (0..count as u32).map(|j| base + j).collect();
        if partitioner.shards() > 1 && count > 1 {
            let first_owner = partitioner.owner(keys[0]);
            if keys.iter().all(|&k| partitioner.owner(k) == first_owner) {
                let mut probe = base + count as u32;
                loop {
                    if partitioner.owner(probe) != first_owner {
                        *keys.last_mut().expect("count >= 1") = probe;
                        break;
                    }
                    probe += 1;
                }
            }
        }
        keys
    }

    fn launch_multi_put(&mut self, step: u32) {
        let tx = self.next_tx;
        self.next_tx += 1;
        let keys = Self::tx_keys(self.service.partitioner(), tx, self.config.multi_put_keys);
        let pairs: Vec<(u32, u64)> = keys
            .iter()
            .enumerate()
            .map(|(index, &key)| (key, tx * 1_000 + index as u64 + 1))
            .collect();
        // The client-crash chaos, deterministic in the transaction id.
        let abandon = match tx % 3 {
            1 => TxAbandon::BeforeCommit,
            2 => TxAbandon::MidCommit,
            _ => TxAbandon::None,
        };
        let ops: Vec<(Operation, usize, NodeId, OpState)> = pairs
            .iter()
            .map(|&(key, value)| {
                let op = Operation::TxReserve { tx, key, value };
                let (shard, client) = self.submit_dedicated(op, step);
                (op, shard, client, OpState::InFlight)
            })
            .collect();
        self.transactions.push(MultiPutTx {
            tx,
            pairs,
            phase: TxPhase::Reserving,
            abandon,
            ops,
        });
    }

    /// Advances every active MultiPut transaction's state machine (the
    /// client half of the two-round protocol, including the scripted
    /// mid-protocol "crashes"). Barrier phases only — transactions span
    /// shards.
    fn step_multi_puts(&mut self, step: u32) {
        if self.config.multi_put_interval > 0
            && step > 0
            && step.is_multiple_of(self.config.multi_put_interval)
        {
            self.launch_multi_put(step);
        }
        for index in 0..self.transactions.len() {
            // Completion: a dedicated client with no outstanding request
            // has had its (only) request answered.
            let mut all_done = true;
            for op_index in 0..self.transactions[index].ops.len() {
                let (_, shard, client, state) = self.transactions[index].ops[op_index];
                if state == OpState::InFlight {
                    if self.service.shard(shard).has_outstanding_request(client) {
                        all_done = false;
                    } else {
                        self.transactions[index].ops[op_index].3 = OpState::Done;
                    }
                }
            }
            if !all_done {
                continue;
            }
            let (phase, abandon, tx) = {
                let t = &self.transactions[index];
                (t.phase, t.abandon, t.tx)
            };
            match phase {
                TxPhase::Reserving => {
                    if abandon == TxAbandon::BeforeCommit {
                        self.transactions[index].phase = TxPhase::AbandonedReserved;
                        continue;
                    }
                    // The commit point: every reserve is quorum-acked.
                    let pairs = self.transactions[index].pairs.clone();
                    let commits: Vec<(u32, u64)> = if abandon == TxAbandon::MidCommit {
                        pairs[..1].to_vec()
                    } else {
                        pairs
                    };
                    let ops: Vec<(Operation, usize, NodeId, OpState)> = commits
                        .iter()
                        .map(|&(key, _)| {
                            let op = Operation::TxCommit { tx, key };
                            let (shard, client) = self.submit_dedicated(op, step);
                            (op, shard, client, OpState::InFlight)
                        })
                        .collect();
                    self.transactions[index].ops = ops;
                    self.transactions[index].phase = TxPhase::Committing;
                }
                TxPhase::Committing => {
                    self.transactions[index].phase = if abandon == TxAbandon::MidCommit {
                        TxPhase::AbandonedMidCommit
                    } else {
                        TxPhase::Done
                    };
                }
                _ => {}
            }
        }
    }

    fn shard_violation(shard: usize, violation: Violation) -> Violation {
        Violation {
            detail: format!("shard {shard}: {}", violation.detail),
            ..violation
        }
    }

    /// The recovery bound's replica count: every shard's compromises
    /// compete for the same *global* k budget.
    fn fleet_replicas(config: &ShardedScheduleConfig) -> usize {
        config.shards * config.base.initial_replicas
    }

    /// The full oracle pass — shard-major: the group's safety oracles,
    /// then routing, then GST liveness. Used at single-step barriers and at
    /// the end of the settle phase (the free-run windows use the same
    /// per-group checks locally and [`ShardedHarness::resolve_window`]
    /// canonically).
    fn check_invariants(&mut self, step: u32) -> Option<Violation> {
        let base = &self.config.base;
        let replicas = Self::fleet_replicas(self.config);
        for shard in 0..self.service.num_shards() {
            let cluster = self.service.shard(shard);
            let group = &mut self.states[shard].group;
            let violation = group
                .check_safety(base, replicas, cluster, step)
                .map(|v| Self::shard_violation(shard, v))
                .or_else(|| self.routing.check_shard(shard, cluster, step))
                .or_else(|| {
                    group
                        .check_gst_liveness(base, cluster, step)
                        .map(|v| Self::shard_violation(shard, v))
                });
            if violation.is_some() {
                return violation;
            }
        }
        None
    }

    /// Free-runs one shard's sub-executor through `window` (`start..end`).
    /// The barrier step `start` has already had its events and client
    /// driving applied in the barrier phases; later steps apply their own.
    /// With `local_checks`, the per-group oracles run each step and the
    /// shard stops at its earliest violation (recorded for canonical
    /// resolution at the barrier); without (single-step windows), the
    /// barrier runs the full oracle pass instead.
    fn shard_window(
        config: &ShardedScheduleConfig,
        events: &[ScheduledFault],
        cluster: &mut MinBftCluster,
        state: &mut ShardState,
        window: std::ops::Range<u32>,
        local_checks: bool,
    ) {
        let base = &config.base;
        let start = window.start;
        for step in window {
            if step != start {
                if base.gst == Some(step) {
                    group::restore_network(base, cluster);
                }
                state.group.apply_due_events(base, events, cluster, step);
                Self::drive_shard_clients(cluster, state, step);
            }
            cluster.run_until(f64::from(step + 1) * STEP_DURATION_S);
            if local_checks {
                let replicas = Self::fleet_replicas(config);
                let group = &mut state.group;
                state.window_violation = group
                    .check_safety(base, replicas, cluster, step)
                    .map(|v| (step, 0, v))
                    .or_else(|| {
                        group
                            .check_gst_liveness(base, cluster, step)
                            .map(|v| (step, 1, v))
                    });
            }
            let record = state.group.trace_record(cluster, step);
            state.group.trace.push(record);
            if state.window_violation.is_some() {
                break;
            }
        }
    }

    /// Canonical violation resolution at a multi-step window barrier: the
    /// earliest `(step, shard, pre-before-GST)` local violation wins; when
    /// no shard violated locally, the routing oracle runs shard-major at
    /// the window's last step. Returns the violation and its step.
    fn resolve_window(&mut self, window_end: u32) -> Option<(u32, Violation)> {
        let best = self.states.iter().enumerate().filter_map(|(shard, state)| {
            let (step, rank, _) = state.window_violation.as_ref()?;
            Some((*step, *rank, shard))
        });
        if let Some((step, _, shard)) = best.min() {
            let (_, _, violation) = self.states[shard]
                .window_violation
                .take()
                .expect("the canonical candidate exists");
            return Some((step, Self::shard_violation(shard, violation)));
        }
        let step = window_end.saturating_sub(1);
        for shard in 0..self.service.num_shards() {
            let cluster = self.service.shard(shard);
            if let Some(violation) = self.routing.check_shard(shard, cluster, step) {
                return Some((step, violation));
            }
        }
        None
    }

    fn any_outstanding(&self) -> bool {
        self.states.iter().enumerate().any(|(shard, state)| {
            !state
                .group
                .outstanding(self.service.shard(shard))
                .is_empty()
        })
    }

    fn fleet_now(&self) -> f64 {
        (0..self.service.num_shards())
            .map(|shard| self.service.shard(shard).now())
            .fold(0.0, f64::max)
    }

    /// Runs every shard to a barrier-computed common deadline one settle
    /// window ahead and nudges its stragglers.
    fn settle_round(&mut self) {
        let target = self.fleet_now() + group::SETTLE_WINDOW_S;
        self.for_each_shard(move |_, cluster, _| {
            cluster.run_until(target);
            group::catch_up_stragglers(cluster);
        });
    }

    /// The settle phase: heal every shard, recover every still-marked
    /// replica, drain outstanding requests, **roll forward** interrupted
    /// MultiPut commit rounds, probe each shard, and run the atomicity
    /// check over every transaction. The heal and the drain rounds run
    /// per-shard on the worker pool; every oracle decision stays serial.
    fn settle(&mut self) -> Option<Violation> {
        let base = &self.config.base;
        let horizon = base.horizon;
        self.for_each_shard(move |_, cluster, state| {
            state.group.heal_and_recover_marked(base, cluster);
        });
        for round in 0..10 {
            self.settle_round();
            if !self.any_outstanding() && round > 0 {
                break;
            }
        }
        if self.any_outstanding() {
            return Some(Violation {
                kind: InvariantKind::Liveness,
                step: u32::MAX,
                detail: "clients still have unanswered requests after all faults were healed"
                    .into(),
            });
        }
        // Roll-forward: re-drive every interrupted commit round (the
        // recovery any client may perform, because commits are idempotent).
        let roll_forward: Vec<(u64, Vec<(u32, u64)>)> = self
            .transactions
            .iter()
            .filter(|t| matches!(t.phase, TxPhase::Committing | TxPhase::AbandonedMidCommit))
            .map(|t| (t.tx, t.pairs.clone()))
            .collect();
        for (tx, pairs) in &roll_forward {
            for &(key, _) in pairs {
                self.submit_dedicated(Operation::TxCommit { tx: *tx, key }, horizon);
            }
        }
        // Probe every shard: a fresh routed request must complete.
        for shard in 0..self.service.num_shards() {
            let key = self.states[shard].owned_keys[0];
            let probe = Operation::Put {
                key,
                value: 0xdead_beef,
            };
            self.submit_dedicated(probe, horizon);
        }
        for _ in 0..10 {
            self.settle_round();
            if !self.any_outstanding() {
                break;
            }
        }
        if self.any_outstanding() {
            return Some(Violation {
                kind: InvariantKind::Liveness,
                step: u32::MAX,
                detail: "a settle-phase probe or roll-forward commit never completed".into(),
            });
        }
        for index in 0..self.transactions.len() {
            if matches!(
                self.transactions[index].phase,
                TxPhase::Committing | TxPhase::AbandonedMidCommit
            ) {
                self.transactions[index].phase = TxPhase::Done;
            }
        }
        // Atomicity: every transaction is all-or-nothing by now. The keys
        // are transaction-private, so "nothing" is exactly the absent/0
        // value and "all" is exactly the transaction's values.
        for transaction in &self.transactions {
            let applied = transaction.phase == TxPhase::Done;
            for &(key, value) in &transaction.pairs {
                let observed = self.service.read_key(key).unwrap_or(0);
                let expected = if applied { value } else { 0 };
                if observed != expected {
                    return Some(Violation {
                        kind: InvariantKind::Atomicity,
                        step: u32::MAX,
                        detail: format!(
                            "multi-put tx {} ({}applied) key {key}: observed {observed}, \
                             expected {expected}",
                            transaction.tx,
                            if applied { "" } else { "not " },
                        ),
                    });
                }
            }
        }
        if let Some(violation) = self.check_invariants(horizon) {
            return Some(violation);
        }
        if !self.service.logs_are_consistent() {
            return Some(Violation {
                kind: InvariantKind::Agreement,
                step: u32::MAX,
                detail: "a shard's healthy logs diverged by the end of the settle phase".into(),
            });
        }
        None
    }

    /// Executes the schedule. The result is a pure function of
    /// `(seed, config)` — never of the worker count (see the module docs
    /// for the barrier/phase structure).
    fn run(mut self) -> Result<ShardedRunReport> {
        let (config, schedule) = (self.config, self.schedule);
        let tick = config.fleet_tick_interval.max(1);
        let horizon = config.base.horizon;
        // A GST schedule starts every shard in the asynchronous phase.
        let initial_network = config.base.ambient_network(0);
        for shard in 0..self.service.num_shards() {
            self.service
                .shard_mut(shard)
                .set_network_config(initial_network);
        }
        let mut violation: Option<Violation> = None;
        let mut steps_run: u64 = 0;
        let mut step = 0u32;
        while step < horizon {
            let window_end = (step + tick).min(horizon);
            // Phase A — per shard: GST restore and due fault events, with
            // control-plane effects buffered.
            self.for_each_shard(move |shard, cluster, state| {
                if config.base.gst == Some(step) {
                    group::restore_network(&config.base, cluster);
                }
                let events = &schedule.shards[shard].events;
                state
                    .group
                    .apply_due_events(&config.base, events, cluster, step);
            });
            // Phase B — serial: control-plane note drain + fleet tick.
            self.drain_plane_notes();
            self.control_tick(step);
            // Phase C — per shard: routed client driving.
            self.for_each_shard(move |_, cluster, state| {
                Self::drive_shard_clients(cluster, state, step);
            });
            // Phase D — serial: routing-record merge + MultiPut rounds.
            self.merge_routing_records();
            self.step_multi_puts(step);
            // Phase E — per shard: free-run the window.
            let local_checks = window_end - step > 1;
            self.for_each_shard(move |shard, cluster, state| {
                let events = &schedule.shards[shard].events;
                let window = step..window_end;
                Self::shard_window(config, events, cluster, state, window, local_checks);
            });
            self.merge_routing_records();
            // Phase F — serial: violation resolution.
            let resolved = if local_checks {
                self.resolve_window(window_end)
            } else {
                self.check_invariants(step).map(|v| (step, v))
            };
            match resolved {
                Some((violating_step, found)) => {
                    steps_run = u64::from(violating_step) + 1;
                    violation = Some(found);
                    break;
                }
                None => {
                    steps_run = u64::from(window_end);
                }
            }
            step = window_end;
        }
        if violation.is_none() {
            violation = self.settle();
            for (shard, state) in self.states.iter_mut().enumerate() {
                let record = state.group.trace_record(self.service.shard(shard), horizon);
                state.group.trace.push(record);
            }
        }
        let groups: Vec<(&MinBftCluster, &Group)> = self
            .states
            .iter()
            .enumerate()
            .map(|(shard, state)| (self.service.shard(shard), &state.group))
            .collect();
        let outcome = group::outcome(steps_run, &groups);
        let launched = self.transactions.len() as u64;
        let committed_txs = self
            .transactions
            .iter()
            .filter(|t| t.phase == TxPhase::Done)
            .count() as u64;
        let mut trace = Vec::with_capacity(self.states.len());
        let mut autotune = Vec::with_capacity(self.states.len());
        for state in self.states {
            trace.push(state.group.trace);
            autotune.push(state.decisions);
        }
        Ok(ShardedRunReport {
            outcome,
            trace,
            multi_puts: (launched, committed_txs),
            autotune,
            violation,
        })
    }
}

/// The four-shard configuration of the `sharded/chaos-4` scenario:
/// lighter per-shard chaos over a wider fleet.
pub fn sharded_chaos_4_config() -> ShardedScheduleConfig {
    ShardedScheduleConfig {
        shards: 4,
        base: ScheduleConfig {
            horizon: 20,
            intensity: 0.25,
            ..ScheduleConfig::default()
        },
        ..ShardedScheduleConfig::default()
    }
}

/// The MultiPut-heavy configuration of the `sharded/multiput` scenario:
/// transactions launched every three steps, three keys each.
pub fn sharded_multiput_config() -> ShardedScheduleConfig {
    ShardedScheduleConfig {
        shards: 2,
        base: ScheduleConfig {
            horizon: 24,
            intensity: 0.25,
            ..ScheduleConfig::default()
        },
        multi_put_interval: 3,
        multi_put_keys: 3,
        ..ShardedScheduleConfig::default()
    }
}

/// The intrusion-heavy configuration of the `sharded/fleet-controlled`
/// scenario: the fleet-level system controller allocates the global
/// budget while both shards take compromise/crash chaos and cross-shard
/// MultiPuts keep running.
pub fn sharded_fleet_controlled_config() -> ShardedScheduleConfig {
    ShardedScheduleConfig {
        shards: 2,
        base: ScheduleConfig {
            horizon: 24,
            intensity: 0.4,
            system_controller: true,
            enabled: vec![
                crate::simnet::schedule::FaultKind::IntrusionBurst,
                crate::simnet::schedule::FaultKind::CrashReplica,
                crate::simnet::schedule::FaultKind::ByzantineFlip,
                crate::simnet::schedule::FaultKind::ClientBurst,
            ],
            ..ScheduleConfig::default()
        },
        multi_put_interval: 4,
        ..ShardedScheduleConfig::default()
    }
}

/// The `fleet/scale-{S}` configuration: S shards × 6 replicas under light
/// chaos, four-step fleet barriers, the seeded open-loop trace workload,
/// and a cross-shard MultiPut launched at every barrier. Scale is limited by
/// hardware, not the harness — the engine free-runs shards between
/// barriers on the worker pool.
pub fn fleet_scale_config(shards: usize) -> ShardedScheduleConfig {
    ShardedScheduleConfig {
        shards,
        base: ScheduleConfig {
            horizon: 16,
            intensity: 0.15,
            initial_replicas: 6,
            ..ScheduleConfig::default()
        },
        key_space: (shards as u32).saturating_mul(8),
        multi_put_interval: 4,
        multi_put_keys: 2,
        fleet_tick_interval: 4,
        workload: Some(TraceWorkloadConfig::default()),
        autotune: None,
    }
}

/// The load-swing configuration: the self-tuning data plane
/// under a **10x** diurnal offered-load swing. Two shards take the seeded
/// open-loop trace workload with amplitude `9/11` — peak rate
/// `(1 + 9/11) / (1 - 9/11) = 10` times the trough — under light chaos,
/// while every shard's [`AutotuneController`] ticks each window: AIMD on
/// the leader batch knobs (clamped online through the fragmentation
/// floor), concurrency capping the pool, and backpressure deciding
/// admission. The autotune cost model matches the simulated cluster
/// (`ScheduleConfig::minbft_config` defaults), so the actuated pair is
/// exactly the validated pair. `tests/autotune.rs` drives a diurnal swing
/// against the static grid to check the adaptive-vs-static frontier.
pub fn load_swing_config() -> ShardedScheduleConfig {
    ShardedScheduleConfig {
        shards: 2,
        base: ScheduleConfig {
            horizon: 24,
            intensity: 0.15,
            ..ScheduleConfig::default()
        },
        key_space: 64,
        multi_put_interval: 0,
        multi_put_keys: 2,
        fleet_tick_interval: 4,
        workload: Some(TraceWorkloadConfig {
            base_rate: 4.0,
            diurnal_period: 12,
            diurnal_amplitude: 9.0 / 11.0,
            ..TraceWorkloadConfig::default()
        }),
        autotune: Some(AutotuneConfig {
            max_batch: 64,
            initial_concurrency: 4,
            max_concurrency: 4,
            window_steps: 2,
            ..AutotuneConfig::default()
        }),
    }
}

#[cfg(test)]
mod tests;
