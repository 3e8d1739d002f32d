//! The single-group harness: one MinBFT group, both control levels, one
//! closed-loop client driver.
//!
//! One run wires together the three layers of the reproduction:
//!
//! * a [`MinBftCluster`] over the discrete-event network (consensus layer),
//! * one [`crate::controller::NodeController`] per replica with the BTR
//!   threshold strategy of Theorem 1 (local control level), fed by alert
//!   samples from the paper's observation model, and
//! * optionally the [`crate::controller::SystemController`] of Algorithm 2
//!   (global control level), which evicts crashed replicas and grows the
//!   membership.
//!
//! What the group does under its schedule is the shared group executor
//! ([`crate::simnet::group`]); this module adds only what is particular to
//! the single-group run: the primary `Write` client plus its burst pool,
//! the one-shard [`ControlPlane`] (the same runtime the live threaded
//! scenarios drive), and the settle probe. Schedule generation, alert
//! sampling, network jitter and controller decisions all derive from the
//! schedule's seed, so the same `(seed, config)` pair produces a
//! byte-identical trace on every run, whatever runs in parallel around it.

use crate::controlplane::{ControlPlane, ControlPlaneConfig};
use crate::error::Result;
use crate::metrics::MetricReport;
use crate::runtime::AsMetricReport;
use crate::simnet::group::{self, Group, IdsChannel, PlaneNote, SimnetOutcome, TraceRecord};
use crate::simnet::oracle::{InvariantKind, Violation};
use crate::simnet::schedule::{FaultSchedule, ScheduleConfig};
use serde::{Deserialize, Serialize};
use tolerance_consensus::minbft::{MinBftCluster, Operation};

/// The result of executing one schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Aggregate outcome.
    pub outcome: SimnetOutcome,
    /// The per-step event trace.
    pub trace: Vec<TraceRecord>,
    /// The first invariant violation, if any (the run stops there).
    pub violation: Option<Violation>,
}

impl AsMetricReport for RunReport {
    fn metric_report(&self) -> MetricReport {
        self.outcome.metric_report()
    }
}

/// Executes `schedule` against a freshly built stack configured by `config`.
///
/// # Errors
///
/// Propagates model-construction and LP failures; invariant violations are
/// reported inside the [`RunReport`], not as errors (the shrinker needs
/// them as data).
pub fn run_schedule(schedule: &FaultSchedule, config: &ScheduleConfig) -> Result<RunReport> {
    SimHarness::new(schedule, config)?.run()
}

struct SimHarness<'a> {
    schedule: &'a FaultSchedule,
    config: &'a ScheduleConfig,
    cluster: MinBftCluster,
    /// The group executor; `group.clients[0]` is the primary closed-loop
    /// client, the rest the burst pool.
    group: Group,
    controlplane: ControlPlane,
    ids: IdsChannel,
    /// Whether `SIMNET_DEBUG` diagnostics print (read once, here).
    debug: bool,
}

impl<'a> SimHarness<'a> {
    fn new(schedule: &'a FaultSchedule, config: &'a ScheduleConfig) -> Result<Self> {
        let mut cluster = MinBftCluster::new(config.minbft_config(schedule.seed));
        let (ids, node_model) = IdsChannel::new(schedule.seed)?;
        let controlplane = ControlPlane::with_model(
            ControlPlaneConfig {
                recovery_threshold: config.recovery_threshold,
                delta_r: Some(config.delta_r),
                parallel_recoveries: config.parallel_recoveries,
                system_controller: config.system_controller,
                min_replicas: 4,
                max_replicas: config.max_replicas,
                fault_threshold: config.fault_threshold().max(1),
                availability_target: 0.9,
                node_survival_probability: 0.95,
            },
            node_model,
        )?;
        let clients = (0..4).map(|_| cluster.add_client()).collect();
        Ok(SimHarness {
            schedule,
            config,
            group: Group::new(config.initial_replicas, clients),
            cluster,
            controlplane,
            ids,
            debug: std::env::var_os("SIMNET_DEBUG").is_some(),
        })
    }

    /// Hands the control-plane effects of the step's scheduled events to
    /// the plane (tick-driven recoveries are reset inside the tick; the
    /// reset is idempotent).
    fn drain_plane_notes(&mut self) {
        for note in self.group.plane_notes.drain(..) {
            match note {
                PlaneNote::Recovered(node) => {
                    self.controlplane.controller(node).notify_recovered();
                }
                PlaneNote::Forget(node) => self.controlplane.forget(node),
            }
        }
    }

    /// One control tick of both levels: the group contributes the
    /// deterministic IDS sampling and the ground-truth crash/compromise
    /// state, the plane belief tracking, the k-parallel-recovery constraint
    /// and the Algorithm-2 replication decision, actuated through
    /// [`group::HarnessActuator`].
    fn control_tick(&mut self, step: u32) {
        let observations = self.group.observations(&self.cluster, &mut self.ids);
        let mut actuator = self.group.actuator(&mut self.cluster, step);
        self.controlplane
            .tick(&observations, &mut actuator, &mut self.ids.rng);
    }

    fn drive_clients(&mut self, step: u32) {
        let primary = self.group.clients[0];
        if !self.cluster.has_outstanding_request(primary) {
            let operation = Operation::Write(u64::from(step) + 1);
            self.group
                .submit(&mut self.cluster, primary, operation, step);
        }
        for index in 1..self.group.clients.len() {
            if self.group.pending_bursts == 0 {
                break;
            }
            let client = self.group.clients[index];
            if !self.cluster.has_outstanding_request(client) {
                self.group.pending_bursts -= 1;
                let value =
                    0x1000_0000 + u64::from(step) * 16 + u64::from(self.group.pending_bursts);
                self.group
                    .submit(&mut self.cluster, client, Operation::Write(value), step);
            }
        }
    }

    fn check_oracles(&mut self, step: u32) -> Option<Violation> {
        let replicas = self.config.initial_replicas;
        self.group
            .check_safety(self.config, replicas, &self.cluster, step)
            .or_else(|| {
                self.group
                    .check_gst_liveness(self.config, &self.cluster, step)
            })
    }

    /// Runs the cluster for one settle window and nudges stragglers.
    fn settle_round(&mut self) {
        let window = group::settle_window(self.config);
        self.cluster.run_until(self.cluster.now() + window);
        group::catch_up_stragglers(&mut self.cluster);
    }

    /// The settle phase: heal everything, recover every still-marked
    /// replica, then require the service to come back (a probe request must
    /// complete and the logs must be consistent). This is the operational
    /// form of the eventual-service-liveness guarantee.
    fn settle(&mut self) -> Option<Violation> {
        self.group
            .heal_and_recover_marked(self.config, &mut self.cluster);
        for round in 0..10 {
            self.settle_round();
            if self.debug {
                let label = format!("settle round {round}");
                self.group.debug_dump(&label, &self.cluster, None);
            }
            if self.group.outstanding(&self.cluster).is_empty() && round > 0 {
                break;
            }
        }
        let outstanding = self.group.outstanding(&self.cluster);
        if !outstanding.is_empty() {
            return Some(Violation {
                kind: InvariantKind::Liveness,
                step: u32::MAX,
                detail: format!(
                    "clients {outstanding:?} still have unanswered requests after all faults \
                     were healed"
                ),
            });
        }
        // Probe: a fresh request must complete now that faults are ≤ f.
        let primary = self.group.clients[0];
        let probe = Operation::Write(0xdead_beef);
        self.group
            .submit(&mut self.cluster, primary, probe, self.config.horizon);
        for _ in 0..10 {
            self.settle_round();
            if !self.cluster.has_outstanding_request(primary) {
                break;
            }
        }
        if self.cluster.has_outstanding_request(primary) {
            return Some(Violation {
                kind: InvariantKind::Liveness,
                step: u32::MAX,
                detail: "the settle-phase probe request never completed".into(),
            });
        }
        if let Some(violation) = self.check_oracles(self.config.horizon) {
            return Some(violation);
        }
        if !self.cluster.logs_are_consistent() {
            return Some(Violation {
                kind: InvariantKind::Agreement,
                step: u32::MAX,
                detail: "healthy logs diverged by the end of the settle phase".into(),
            });
        }
        None
    }

    fn run(mut self) -> Result<RunReport> {
        let mut violation: Option<Violation> = None;
        let mut steps_run: u64 = 0;
        // A GST schedule starts in the asynchronous phase.
        self.cluster
            .set_network_config(self.config.ambient_network(0));
        for step in 0..self.config.horizon {
            steps_run = u64::from(step) + 1;
            if self.config.gst == Some(step) {
                // Global stabilization (the generator draws no network
                // faults past this step).
                group::restore_network(self.config, &mut self.cluster);
            }
            self.group.apply_due_events(
                self.config,
                &self.schedule.events,
                &mut self.cluster,
                step,
            );
            self.drain_plane_notes();
            self.control_tick(step);
            self.drive_clients(step);
            self.cluster
                .run_until(f64::from(step + 1) * self.config.step_duration);
            violation = self.check_oracles(step);
            if self.debug {
                let label = format!("step {step}");
                self.group
                    .debug_dump(&label, &self.cluster, violation.as_ref());
            }
            let record = self.group.trace_record(&self.cluster, step);
            self.group.trace.push(record);
            if violation.is_some() {
                break;
            }
        }
        if violation.is_none() {
            violation = self.settle();
            let record = self.group.trace_record(&self.cluster, self.config.horizon);
            self.group.trace.push(record);
        }
        Ok(RunReport {
            outcome: group::outcome(steps_run, &[(&self.cluster, &self.group)]),
            trace: self.group.trace,
            violation,
        })
    }
}
