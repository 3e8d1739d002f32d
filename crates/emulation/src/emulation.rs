//! The closed-loop emulation of the TOLERANCE architecture.
//!
//! One emulation run reproduces the paper's evaluation setup (Section
//! VIII-A): it starts with `N_1` nodes, each running a replica drawn from the
//! container catalogue; at every (logical 60-second) time-step the attacker
//! progresses intrusions and the IDS emits weighted alert counts. The run
//! produces the three metrics of Section III-C — `T(A)`, `T(R)` and `F(R)` —
//! that populate Table 7 / Fig. 12.
//!
//! The emulated testbed is a plant of the [`ControlPlane`] that steers the
//! live service: it reports each node's alerts (silence, once crashed) as a
//! [`NodeReport`], installs each node's strategy (a TOLERANCE controller over
//! its container's IDS model, or a baseline) and actuates the plane's
//! recoveries, evictions and JOINs as a [`ClusterActuator`]. A step is
//! "advance the testbed, tick the plane, record the metrics".
//!
//! The loop simulates only what its outputs depend on. The testbed's
//! background clients (Poisson arrivals, `λ = 20`, mean stay `μ = 4` steps)
//! are not re-simulated: the paper estimates `Ẑ` from a testbed that already
//! carries them (Section VIII-A, Fig. 11), so the alert distributions the
//! IDS model samples from are the marginals under background load, and a
//! second client process would be bookkeeping no metric reads.
//!
//! The consensus protocol itself does not need to run inside the metric loop
//! (the metrics only depend on node states and controller decisions), but
//! [`Emulation::run_with_consensus`] drives a real MinBFT cluster alongside
//! the loop — mirroring each actuation through the cluster's own
//! [`ClusterActuator`], injecting the attacker's Byzantine behaviour, and
//! issuing client requests — to check end-to-end that the controlled system
//! keeps providing correct service.

use crate::attacker::{AttackProfile, Attacker};
use crate::containers::ContainerCatalog;
use crate::ids::IdsModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tolerance_consensus::minbft::{MinBftCluster, MinBftConfig, Operation};
use tolerance_consensus::NodeId;
use tolerance_core::controlplane::{ClusterActuator, ControlPlane, ControlPlaneConfig, NodeReport};
use tolerance_core::metrics::{EvaluationMetrics, MetricReport};
use tolerance_core::node_model::{NodeModel, NodeParameters, NodeState};
use tolerance_core::runtime::NodeStrategy;
use tolerance_core::Result;

pub use tolerance_core::runtime::StrategyKind;

/// Availability target `ε_A` of the replication CMDP of every run.
const AVAILABILITY_TARGET: f64 = 0.9;

/// Configuration of one emulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmulationConfig {
    /// Initial number of nodes `N_1` (the paper evaluates 3, 6 and 9).
    pub initial_nodes: usize,
    /// Maximum number of nodes `s_max` (13 in the paper's testbed).
    pub max_nodes: usize,
    /// The BTR period `Δ_R` used by the periodic baselines and the TOLERANCE
    /// BTR constraint; `None` means `Δ_R = ∞`.
    pub delta_r: Option<u32>,
    /// Which control strategy to run.
    pub strategy: StrategyKind,
    /// Number of time-steps (the paper's runs last 1000 steps of 60 s).
    pub horizon: u32,
    /// Node transition parameters (attack/crash/update probabilities).
    pub node_parameters: NodeParameters,
    /// How the attacker's intrusion pressure evolves over time (the paper
    /// uses [`AttackProfile::Constant`];
    /// [`bursty_attacker_config`](crate::scenarios::bursty_attacker_config)
    /// adds bursty campaigns).
    pub attack_profile: AttackProfile,
    /// Heterogeneity of the node fleet: each node's attack and
    /// compromised-crash probabilities are scaled by an independent factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`. `0.0` (the paper's
    /// setting) gives an identical fleet.
    pub parameter_jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmulationConfig {
    fn default() -> Self {
        EmulationConfig {
            initial_nodes: 6,
            max_nodes: 13,
            delta_r: None,
            strategy: StrategyKind::Tolerance,
            horizon: 1000,
            node_parameters: NodeParameters::default(),
            attack_profile: AttackProfile::Constant,
            parameter_jitter: 0.0,
            seed: 0,
        }
    }
}

impl EmulationConfig {
    /// The fault threshold used in the paper's evaluation:
    /// `f = min[(N_1 - 1)/2, 2]` (Appendix E).
    pub fn fault_threshold(&self) -> usize {
        (((self.initial_nodes.max(1)) - 1) / 2).min(2)
    }
}

/// The outcome of one emulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmulationOutcome {
    /// The three evaluation metrics.
    pub metrics: MetricReport,
    /// Nodes added (JOINs) during the run.
    pub nodes_added: u64,
    /// Nodes evicted (crashed) during the run.
    pub nodes_evicted: u64,
    /// Total recoveries performed.
    pub recoveries: u64,
    /// Final number of nodes.
    pub final_nodes: usize,
}

/// Per-node runtime state inside the emulation.
struct EmulatedNode {
    /// The node's id in the plane and in a mirrored [`MinBftCluster`]:
    /// `0..N_1`, then `N_1 + nodes_added` for a JOIN; a rebuild keeps it.
    replica: NodeId,
    /// Catalogue position of the replica's container: indexes
    /// `Testbed::catalog` and `Testbed::ids_models`.
    container: usize,
    state: NodeState,
    attacker: Attacker,
    /// The node's own (in a heterogeneous fleet, jittered) transition
    /// parameters, which its controller models too.
    parameters: NodeParameters,
    /// Time-step at which the current compromise started (for `T(R)`).
    compromise_started: Option<u64>,
}

/// The emulated testbed: the plant the control plane steers.
struct Testbed {
    config: EmulationConfig,
    catalog: ContainerCatalog,
    /// One validated IDS model per catalogue entry, in catalogue order.
    ids_models: Vec<IdsModel>,
    /// The plant's stream: attacks, crashes, alerts, rebuilds and JOINs.
    rng: StdRng,
    /// The membership, in replica-id order.
    nodes: Vec<EmulatedNode>,
    /// The strategies of the nodes built since the plane last took them.
    fresh: Vec<(NodeId, NodeStrategy)>,
    metrics: EvaluationMetrics,
    nodes_added: u64,
    nodes_evicted: u64,
    recoveries: u64,
    time_step: u64,
}

/// The closed-loop emulation.
pub struct Emulation {
    testbed: Testbed,
    plane: ControlPlane,
    /// The system controller's stream, apart from the plant's.
    rng: StdRng,
    /// This step's node reports, kept between steps for its allocation.
    reports: Vec<(NodeId, NodeReport<'static>)>,
}

impl Emulation {
    /// Builds an emulation run. For the TOLERANCE strategy this solves the
    /// replication CMDP with Algorithm 2 up front (the training phase the
    /// paper describes in Section X).
    ///
    /// # Errors
    ///
    /// Propagates model-construction and LP failures from `tolerance-core`,
    /// and checks here, once, all a rebuild or a JOIN could fail on: the
    /// base node parameters (a jittered draw outside Theorem 1 falls back to
    /// them).
    pub fn new(config: EmulationConfig) -> Result<Self> {
        config.node_parameters.validate_theorem1()?;
        // A system controller for TOLERANCE only, over `s_max = max_nodes`,
        // Appendix E's `f` and the per-step survival `1 − p_A / 2`.
        let plane = ControlPlane::new(ControlPlaneConfig {
            delta_r: config.delta_r,
            system_controller: config.strategy == StrategyKind::Tolerance,
            // No floor: every crashed node is evicted, however few remain.
            min_replicas: 0,
            max_replicas: config.max_nodes,
            fault_threshold: config.fault_threshold(),
            availability_target: AVAILABILITY_TARGET,
            node_survival_probability: 1.0 - config.node_parameters.p_attack / 2.0,
        })?;
        let catalog = ContainerCatalog::paper_catalog();
        let ids_models = IdsModel::for_catalog(&catalog)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut testbed = Testbed {
            catalog,
            ids_models,
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(1)),
            nodes: Vec::new(),
            fresh: Vec::new(),
            metrics: EvaluationMetrics::new(),
            nodes_added: 0,
            nodes_evicted: 0,
            recoveries: 0,
            time_step: 0,
            config,
        };
        for replica in 0..testbed.config.initial_nodes {
            let node = testbed.build_node(replica as NodeId, &mut rng, false);
            testbed.nodes.push(node);
        }
        let mut emulation = Emulation {
            testbed,
            plane,
            rng: StdRng::seed_from_u64(rng.random()),
            reports: Vec::new(),
        };
        emulation.install_fresh_strategies();
        Ok(emulation)
    }

    /// The configuration of this run.
    pub fn config(&self) -> &EmulationConfig {
        &self.testbed.config
    }

    /// Runs the emulation to its horizon and returns the outcome.
    pub fn run(&mut self) -> EmulationOutcome {
        for _ in 0..self.testbed.config.horizon {
            self.step(None);
        }
        self.finish()
    }

    /// Runs the emulation while driving a real MinBFT cluster: recoveries,
    /// additions and evictions are mirrored into the cluster, the attacker's
    /// post-compromise behaviour is injected as Byzantine faults, and a
    /// client issues one write request per step. Returns the outcome plus the
    /// fraction of client requests that completed correctly.
    pub fn run_with_consensus(&mut self, steps: u32) -> (EmulationOutcome, f64) {
        let mut cluster = self.mirrored_cluster();
        let client = cluster.add_client();
        let mut issued = 0u64;
        for step in 0..steps {
            self.step(Some(&mut cluster));
            // Closed-loop client: only issue a new request once the previous
            // one has been answered (it may span several steps while the
            // cluster recovers or changes views).
            if !cluster.has_outstanding_request(client) {
                cluster.submit(client, Operation::Write(step as u64));
                issued += 1;
            }
            cluster.run_until_quiet(cluster.now() + 2.0);
        }
        let completed = cluster.completed_requests(client);
        let success_rate = if issued == 0 {
            1.0
        } else {
            completed as f64 / issued as f64
        };
        (self.finish(), success_rate)
    }

    /// A MinBFT cluster over this run's initial nodes, for `step` to mirror.
    fn mirrored_cluster(&self) -> MinBftCluster {
        let config = &self.testbed.config;
        MinBftCluster::new(MinBftConfig {
            initial_replicas: config.initial_nodes,
            seed: config.seed,
            ..MinBftConfig::default()
        })
    }

    fn finish(&mut self) -> EmulationOutcome {
        let testbed = &mut self.testbed;
        // Charge intrusions that were never recovered.
        for node in &testbed.nodes {
            if node.compromise_started.is_some() {
                testbed.metrics.record_unrecovered_intrusion();
            }
        }
        EmulationOutcome {
            metrics: testbed.metrics.report(),
            nodes_added: testbed.nodes_added,
            nodes_evicted: testbed.nodes_evicted,
            recoveries: testbed.recoveries,
            final_nodes: testbed.nodes.len(),
        }
    }

    /// One time-step of the closed loop: advance the testbed, tick the
    /// control plane over its reports (a mirrored cluster takes the same
    /// actuations through its own [`ClusterActuator`]), record the metrics.
    fn step(&mut self, mut cluster: Option<&mut MinBftCluster>) {
        self.testbed
            .advance(&mut self.reports, cluster.as_deref_mut());
        let tick = self
            .plane
            .tick(&self.reports, &mut self.testbed, &mut self.rng);
        self.install_fresh_strategies();
        if let Some(cluster) = cluster {
            for &node in &tick.recovered {
                ClusterActuator::recover(cluster, node);
            }
            for &node in &tick.evicted {
                ClusterActuator::evict(cluster, node);
            }
            if tick.joined.is_some() {
                ClusterActuator::join(cluster);
            }
        }
        let testbed = &mut self.testbed;
        let failed = |node: &&EmulatedNode| node.state != NodeState::Healthy;
        let failed = testbed.nodes.iter().filter(failed).count();
        let fault_threshold = testbed.config.fault_threshold();
        testbed
            .metrics
            .record_step(failed, fault_threshold, tick.recovered.len());
    }

    /// Hands the strategies of newly built nodes to the plane.
    fn install_fresh_strategies(&mut self) {
        for (node, strategy) in self.testbed.fresh.drain(..) {
            self.plane.install(node, strategy);
        }
    }
}

impl Testbed {
    /// Draws one node's transition parameters; heterogeneous fleets scale
    /// the attack-related probabilities per node.
    fn sample_node_parameters(&self, rng: &mut StdRng) -> NodeParameters {
        let base = self.config.node_parameters;
        let jitter = self.config.parameter_jitter;
        if jitter <= 0.0 {
            return base;
        }
        let factor = 1.0 + jitter * (2.0 * rng.random::<f64>() - 1.0);
        // The floor keeps assumption C's ordering (p_C2 > p_C1) while never
        // exceeding the cap for large configured crash rates.
        let crash_floor = (base.p_crash_healthy * 2.0).min(0.5);
        let candidate = NodeParameters {
            p_attack: (base.p_attack * factor).clamp(1e-6, 0.5),
            p_crash_compromised: (base.p_crash_compromised * factor).clamp(crash_floor, 0.5),
            ..base
        };
        // Extreme configurations can push a jittered draw outside the
        // Theorem 1 assumptions; such nodes fall back to the base
        // parameters instead of failing the whole run.
        if candidate.validate_theorem1().is_ok() {
            candidate
        } else {
            base
        }
    }

    /// Builds a healthy node under `replica` and queues its strategy for
    /// the plane. A rebuilt node's baseline restarts its period; a new one
    /// starts at a random phase, staggering the periodic recoveries so that
    /// the k-parallel-recovery constraint is not hit by every node at once.
    fn build_node(&mut self, replica: NodeId, rng: &mut StdRng, rebuilt: bool) -> EmulatedNode {
        let container = self.catalog.sample_position(rng);
        // The observation model was validated when `ids_models` was built;
        // the parameters differ per node in a jittered fleet.
        let observations = self.ids_models[container].observation_model();
        let parameters = self.sample_node_parameters(rng);
        let model = NodeModel::new_unchecked(parameters, observations.clone());
        let initial_phase = match self.config.strategy {
            StrategyKind::Baseline(_) if !rebuilt => {
                rng.random_range(0..self.config.delta_r.unwrap_or(1).max(1))
            }
            _ => 0,
        };
        let strategy = self.config.strategy.build_node_strategy(
            model,
            observations.mean(NodeState::Healthy),
            self.config.delta_r,
            initial_phase,
        );
        self.fresh.push((replica, strategy));
        EmulatedNode {
            replica,
            container,
            state: NodeState::Healthy,
            attacker: Attacker::new(parameters.p_attack),
            parameters,
            compromise_started: None,
        }
    }

    /// Advances every node by one time-step — attacker, crash, IDS — and
    /// writes the control plane's input to `reports`: each node's alert
    /// sample, or silence once it crashed.
    fn advance(
        &mut self,
        reports: &mut Vec<(NodeId, NodeReport<'static>)>,
        mut cluster: Option<&mut MinBftCluster>,
    ) {
        self.time_step += 1;
        let time_step = self.time_step;
        let attack_factor = self.config.attack_profile.intensity_factor(time_step);
        reports.clear();
        for node in &mut self.nodes {
            let container = &self.catalog.containers()[node.container];

            // Attacker progression (the profile modulates the per-step
            // intrusion pressure around the node's base probability).
            node.attacker.intrusion_probability = node.parameters.p_attack * attack_factor;
            if node.state == NodeState::Healthy {
                let compromised_now = node.attacker.step(container, time_step, &mut self.rng);
                if compromised_now {
                    node.state = NodeState::Compromised;
                    node.compromise_started = Some(time_step);
                    if let (Some(cluster), Some(behavior)) =
                        (cluster.as_deref_mut(), node.attacker.behavior())
                    {
                        if cluster.membership().contains(&node.replica) {
                            cluster.set_byzantine(node.replica, behavior.byzantine_mode());
                        }
                    }
                }
            }

            // Crashes.
            let crash_probability = match node.state {
                NodeState::Healthy => node.parameters.p_crash_healthy,
                NodeState::Compromised => node.parameters.p_crash_compromised,
                NodeState::Crashed => 0.0,
            };
            if node.state != NodeState::Crashed && self.rng.random::<f64>() < crash_probability {
                node.state = NodeState::Crashed;
            }

            // IDS observation; a crashed node's sample is drawn too, and
            // it reports nothing.
            let step_intensity = node.attacker.step_intensity(container);
            let alerts = self.ids_models[node.container].sample_alerts(
                node.state,
                step_intensity,
                &mut self.rng,
            );
            let report = match node.state {
                NodeState::Crashed => NodeReport::Silent,
                _ => NodeReport::Sample(alerts),
            };
            reports.push((node.replica, report));
        }
    }

    fn index_of(&self, replica: NodeId) -> Option<usize> {
        self.nodes.iter().position(|node| node.replica == replica)
    }
}

/// The testbed's actuation, never refused: a recovery replaces the node's
/// replica by a fresh, randomly drawn container under the same replica id,
/// a JOIN adds a node under the next id, an eviction removes the node.
impl ClusterActuator for Testbed {
    fn replica_count(&self) -> usize {
        self.nodes.len()
    }

    fn contains(&self, node: NodeId) -> bool {
        self.index_of(node).is_some()
    }

    fn recover(&mut self, node: NodeId) -> bool {
        let Some(index) = self.index_of(node) else {
            return false;
        };
        if let Some(started) = self.nodes[index].compromise_started {
            self.metrics.record_recovery_delay(self.time_step - started);
        }
        let mut rng = StdRng::seed_from_u64(self.rng.random());
        self.nodes[index] = self.build_node(node, &mut rng, true);
        self.recoveries += 1;
        true
    }

    fn join(&mut self) -> Option<NodeId> {
        let replica = (self.config.initial_nodes as u64 + self.nodes_added) as NodeId;
        let mut rng = StdRng::seed_from_u64(self.rng.random());
        let node = self.build_node(replica, &mut rng, false);
        self.nodes.push(node);
        self.nodes_added += 1;
        Some(replica)
    }

    fn evict(&mut self, node: NodeId) -> bool {
        let evicted = self.index_of(node).map(|index| self.nodes.remove(index));
        self.nodes_evicted += u64::from(evicted.is_some());
        evicted.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tolerance_core::baselines::BaselineKind;
    use tolerance_core::node_model::NodeAction;
    use tolerance_core::observation::ObservationModel;

    fn config(strategy: StrategyKind, delta_r: Option<u32>, seed: u64) -> EmulationConfig {
        EmulationConfig {
            initial_nodes: 6,
            horizon: 300,
            strategy,
            delta_r,
            seed,
            ..EmulationConfig::default()
        }
    }

    #[test]
    fn fault_threshold_matches_appendix_e() {
        let c = EmulationConfig {
            initial_nodes: 3,
            ..EmulationConfig::default()
        };
        assert_eq!(c.fault_threshold(), 1);
        let c = EmulationConfig {
            initial_nodes: 6,
            ..EmulationConfig::default()
        };
        assert_eq!(c.fault_threshold(), 2);
        let c = EmulationConfig {
            initial_nodes: 9,
            ..EmulationConfig::default()
        };
        assert_eq!(c.fault_threshold(), 2, "capped at 2");
    }

    #[test]
    fn tolerance_run_keeps_high_availability_and_low_ttr() {
        let mut emulation = Emulation::new(config(StrategyKind::Tolerance, None, 1)).unwrap();
        let outcome = emulation.run();
        assert!(
            outcome.metrics.availability > 0.9,
            "TOLERANCE availability {} too low",
            outcome.metrics.availability
        );
        assert!(
            outcome.metrics.time_to_recovery < 20.0,
            "TOLERANCE time-to-recovery {} too high",
            outcome.metrics.time_to_recovery
        );
        assert!(outcome.recoveries > 0);
        assert!(outcome.metrics.recovery_frequency > 0.0);
    }

    #[test]
    fn jitter_with_large_crash_probabilities_does_not_panic() {
        // Regression: the heterogeneity clamp floor (2 * p_C1) must never
        // exceed its 0.5 cap, even for extreme configured crash rates.
        // p_C1 = 0.3 makes the old floor (2 * p_C1 = 0.6) exceed the 0.5
        // cap; p_C2 = 0.9 keeps the base parameters valid under Theorem 1.
        let mut cfg = config(StrategyKind::Tolerance, None, 9);
        cfg.parameter_jitter = 0.9;
        cfg.node_parameters.p_crash_healthy = 0.3;
        cfg.node_parameters.p_crash_compromised = 0.9;
        cfg.horizon = 20;
        let outcome = Emulation::new(cfg).unwrap().run();
        assert!((0.0..=1.0).contains(&outcome.metrics.availability));
    }

    #[test]
    fn jittered_crash_probabilities_reach_the_dynamics() {
        // Regression: the crash draw read the fleet-wide base parameters, so
        // in a heterogeneous fleet every node crashed at the same rate while
        // its controller modelled a jittered one.
        let mut cfg = config(StrategyKind::Baseline(BaselineKind::NoRecovery), None, 11);
        cfg.parameter_jitter = 0.9;
        cfg.node_parameters.p_crash_compromised = 0.25;
        let mut emulation = Emulation::new(cfg).unwrap();
        let trials = 4000;
        let mut crashes = vec![0u32; emulation.testbed.nodes.len()];
        for _ in 0..trials {
            for node in &mut emulation.testbed.nodes {
                node.state = NodeState::Compromised;
            }
            emulation.step(None);
            for (count, node) in crashes.iter_mut().zip(&emulation.testbed.nodes) {
                *count += u32::from(node.state == NodeState::Crashed);
            }
        }
        let rates: Vec<f64> = crashes
            .iter()
            .map(|&count| f64::from(count) / f64::from(trials))
            .collect();
        for (rate, node) in rates.iter().zip(&emulation.testbed.nodes) {
            let modelled = node.parameters.p_crash_compromised;
            assert!(
                (rate - modelled).abs() < 0.03,
                "a node modelled at p_C2 = {modelled} crashed at rate {rate}"
            );
        }
        let fastest = rates.iter().copied().fold(f64::MIN, f64::max);
        let slowest = rates.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            fastest - slowest > 0.1,
            "a ±90 % fleet must crash at visibly different rates, got {rates:?}"
        );
    }

    #[test]
    fn prebuilt_ids_models_equal_for_container() {
        let emulation = Emulation::new(config(StrategyKind::Tolerance, None, 0)).unwrap();
        let containers = emulation.testbed.catalog.containers();
        assert_eq!(containers.len(), 10);
        assert_eq!(emulation.testbed.ids_models.len(), containers.len());
        for (prebuilt, container) in emulation.testbed.ids_models.iter().zip(containers) {
            assert_eq!(*prebuilt, IdsModel::for_container(container));
        }
    }

    #[test]
    fn rebuilt_nodes_reuse_the_prebuilt_model() {
        let mut emulation = Emulation::new(config(StrategyKind::Tolerance, Some(15), 7)).unwrap();
        let outcome = emulation.run();
        assert!(outcome.recoveries > 0, "the run must rebuild nodes");
        let mut containers_seen = std::collections::HashSet::new();
        for node in &emulation.testbed.nodes {
            // The model a node's alerts are sampled from is its own
            // container's (catalogue positions are 0-based, ids 1-based).
            let container = &emulation.testbed.catalog.containers()[node.container];
            let ids = &emulation.testbed.ids_models[node.container];
            assert_eq!(*ids, IdsModel::for_container(container));
            containers_seen.insert(container.id);
        }
        assert!(containers_seen.len() > 1, "rebuilds draw fresh containers");
    }

    #[test]
    fn no_recovery_run_collapses() {
        let mut emulation = Emulation::new(config(
            StrategyKind::Baseline(BaselineKind::NoRecovery),
            None,
            2,
        ))
        .unwrap();
        let outcome = emulation.run();
        assert!(
            outcome.metrics.availability < 0.5,
            "NO-RECOVERY availability {} should collapse",
            outcome.metrics.availability
        );
        assert_eq!(outcome.recoveries, 0);
        assert_eq!(outcome.metrics.recovery_frequency, 0.0);
        // A baseline runs no system controller: crashed nodes stay.
        assert_eq!(outcome.nodes_added, 0);
        assert_eq!(outcome.nodes_evicted, 0);
        // Unrecovered intrusions are charged the cap.
        assert!(outcome.metrics.time_to_recovery > 500.0);
    }

    #[test]
    fn periodic_baseline_sits_between_tolerance_and_no_recovery() {
        let mut tolerance = Emulation::new(config(StrategyKind::Tolerance, Some(15), 3)).unwrap();
        let tolerance_outcome = tolerance.run();
        let mut periodic = Emulation::new(config(
            StrategyKind::Baseline(BaselineKind::Periodic),
            Some(15),
            3,
        ))
        .unwrap();
        let periodic_outcome = periodic.run();
        let mut none = Emulation::new(config(
            StrategyKind::Baseline(BaselineKind::NoRecovery),
            Some(15),
            3,
        ))
        .unwrap();
        let none_outcome = none.run();

        assert!(periodic_outcome.metrics.availability > none_outcome.metrics.availability);
        assert!(
            tolerance_outcome.metrics.time_to_recovery < periodic_outcome.metrics.time_to_recovery,
            "feedback recovery must react faster than periodic ({} vs {})",
            tolerance_outcome.metrics.time_to_recovery,
            periodic_outcome.metrics.time_to_recovery
        );
    }

    #[test]
    fn periodic_adaptive_adds_nodes_on_bursts() {
        let mut adaptive = Emulation::new(config(
            StrategyKind::Baseline(BaselineKind::PeriodicAdaptive),
            Some(15),
            4,
        ))
        .unwrap();
        let outcome = adaptive.run();
        assert!(
            outcome.nodes_added > 0,
            "the adaptive baseline should add nodes on alert bursts"
        );
        assert_eq!(outcome.nodes_evicted, 0, "baselines evict nothing");
        assert!(outcome.final_nodes <= 13);
    }

    #[test]
    fn one_slot_goes_to_the_higher_deciding_belief_and_the_loser_requests_again() {
        // k = 1 and two compromised nodes whose controllers see through a
        // blind IDS model (equal alert distributions): a belief follows the
        // transition prediction alone, so each deciding belief is known
        // before the step. Node 0 crosses the threshold this step; node 1
        // crossed one step earlier and was deferred, so it decides higher.
        let mut emulation = Emulation::new(EmulationConfig {
            initial_nodes: 3,
            ..config(StrategyKind::Tolerance, None, 0)
        })
        .unwrap();
        emulation.plane = ControlPlane::new(ControlPlaneConfig {
            system_controller: false,
            ..emulation.plane.config().clone()
        })
        .unwrap();
        let support = emulation.testbed.ids_models[0]
            .observation_model()
            .healthy_distribution()
            .len();
        let blind = vec![1.0 / support as f64; support];
        let blind = ObservationModel::from_distributions(blind.clone(), blind).unwrap();
        let model = NodeModel::new_unchecked(NodeParameters::default(), blind);
        let mut below = NodeStrategy::tolerance(model, None);
        loop {
            let mut next = below.clone();
            if next.observe_events(&[0]) == NodeAction::Recover {
                break;
            }
            below = next;
        }
        let mut deferred = below.clone();
        deferred.observe_events(&[0]);
        deferred.notify_deferred();
        let decides_on = |strategy: &NodeStrategy| {
            let mut next = strategy.clone();
            assert_eq!(next.observe_events(&[0]), NodeAction::Recover);
            next.request_belief().unwrap()
        };
        let (lower, higher) = (decides_on(&below), decides_on(&deferred));
        assert!(lower < higher, "{lower} vs {higher}");
        for (node, strategy) in emulation.testbed.nodes.iter_mut().zip([below, deferred]) {
            emulation.plane.install(node.replica, strategy);
            node.state = NodeState::Compromised;
            node.parameters.p_crash_compromised = 0.0;
        }
        emulation.testbed.nodes[2].state = NodeState::Crashed;

        emulation.step(None);
        assert_eq!(emulation.testbed.recoveries, 1);
        assert_eq!(
            emulation.testbed.nodes[1].state,
            NodeState::Healthy,
            "rebuilt"
        );
        let loser = emulation.plane.controller(0);
        assert_eq!(loser.request_belief(), Some(lower));
        assert_eq!(loser.belief(), Some(lower), "the deferral restores it");

        emulation.step(None);
        assert_eq!(emulation.testbed.recoveries, 2);
        assert_eq!(
            emulation.testbed.nodes[0].state,
            NodeState::Healthy,
            "the deferred node requests and recovers on the next step"
        );
    }

    #[test]
    fn a_mirrored_cluster_keeps_the_emulated_replica_ids() {
        // Evictions shift the emulation's node indices but never the
        // cluster's replica ids: every step must address the same replicas.
        for seed in 0..20 {
            let mut emulation =
                Emulation::new(config(StrategyKind::Tolerance, None, seed)).unwrap();
            let mut cluster = emulation.mirrored_cluster();
            for step in 0..200 {
                emulation.step(Some(&mut cluster));
                cluster.run_until_quiet(cluster.now() + 2.0);
                let replicas: Vec<NodeId> =
                    emulation.testbed.nodes.iter().map(|n| n.replica).collect();
                assert_eq!(cluster.membership(), replicas, "seed {seed}, step {step}");
            }
        }
    }

    #[test]
    fn tolerance_with_consensus_completes_requests_correctly() {
        let mut emulation = Emulation::new(EmulationConfig {
            initial_nodes: 4,
            horizon: 40,
            strategy: StrategyKind::Tolerance,
            seed: 5,
            ..EmulationConfig::default()
        })
        .unwrap();
        let (outcome, success_rate) = emulation.run_with_consensus(40);
        assert!(outcome.metrics.availability > 0.8);
        assert!(
            success_rate > 0.8,
            "most client requests should complete despite intrusions, got {success_rate}"
        );
    }

    #[test]
    fn node_count_never_exceeds_the_maximum() {
        let mut emulation = Emulation::new(EmulationConfig {
            initial_nodes: 9,
            max_nodes: 10,
            horizon: 200,
            strategy: StrategyKind::Tolerance,
            seed: 6,
            ..EmulationConfig::default()
        })
        .unwrap();
        let outcome = emulation.run();
        assert!(outcome.final_nodes <= 10);
        assert!(emulation.testbed.nodes.len() <= 10);
        assert_eq!(emulation.config().max_nodes, 10);
    }
}
