//! The closed-loop emulation of the TOLERANCE architecture.
//!
//! One emulation run reproduces the paper's evaluation setup (Section
//! VIII-A): it starts with `N_1` nodes, each running a replica drawn from the
//! container catalogue; at every (logical 60-second) time-step the attacker
//! progresses intrusions, the IDS emits weighted alert counts, the node
//! controllers (or a baseline strategy) decide which replicas to recover, and
//! the system controller (for TOLERANCE) decides whether to add a node and
//! evicts crashed nodes. The run produces the three metrics of Section III-C
//! — `T(A)`, `T(R)` and `F(R)` — that populate Table 7 / Fig. 12.
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
//! the loop — mirroring recoveries, additions and evictions, injecting the
//! attacker's Byzantine behaviour, and issuing client requests — to check
//! end-to-end that the controlled system keeps providing correct service.

use crate::attacker::{AttackProfile, Attacker};
use crate::containers::ContainerCatalog;
use crate::ids::IdsModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tolerance_consensus::minbft::{MinBftCluster, MinBftConfig, Operation};
use tolerance_consensus::NodeId;
use tolerance_core::baselines::RecoveryDecision;
use tolerance_core::controller::{allocate_recoveries, SystemController};
use tolerance_core::metrics::{EvaluationMetrics, MetricReport};
use tolerance_core::node_model::{NodeModel, NodeParameters, NodeState};
use tolerance_core::replication::ReplicationConfig;
use tolerance_core::runtime::{NodeStrategy, NodeStrategyConfig};
use tolerance_core::Result;

pub use tolerance_core::runtime::StrategyKind;

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
    /// Maximum number of parallel recoveries `k` (Proposition 1).
    pub parallel_recoveries: usize,
    /// Node transition parameters (attack/crash/update probabilities).
    pub node_parameters: NodeParameters,
    /// Availability target `ε_A` of the replication CMDP.
    pub availability_target: f64,
    /// Belief threshold used by the TOLERANCE node controllers. The bench
    /// harness computes this with Algorithm 1; the default (0.76) is the
    /// value the paper reports in Fig. 13b.
    pub recovery_threshold: f64,
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
            parallel_recoveries: 1,
            node_parameters: NodeParameters::default(),
            availability_target: 0.9,
            recovery_threshold: 0.76,
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
    /// Nodes added by the system controller during the run.
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
    /// The node's id in a mirrored [`MinBftCluster`], which never shifts: the
    /// cluster's next id when the node was added; a rebuild keeps it.
    replica: NodeId,
    /// Catalogue position of the replica's container: indexes
    /// `Emulation::catalog` and `Emulation::ids_models`.
    container: usize,
    state: NodeState,
    attacker: Attacker,
    strategy: NodeStrategy,
    /// The node's own transition parameters (heterogeneous fleets jitter
    /// them per node): the plant draws attacks and crashes from the same
    /// values the node's controller models. The attack profile scales
    /// `p_attack` per step.
    parameters: NodeParameters,
    /// Time-step at which the current compromise started (for `T(R)`).
    compromise_started: Option<u64>,
}

/// The closed-loop emulation.
pub struct Emulation {
    config: EmulationConfig,
    catalog: ContainerCatalog,
    /// One validated IDS model per catalogue entry, in catalogue order.
    ids_models: Vec<IdsModel>,
    rng: StdRng,
    nodes: Vec<EmulatedNode>,
    system_controller: Option<SystemController>,
    metrics: EvaluationMetrics,
    nodes_added: u64,
    nodes_evicted: u64,
    recoveries: u64,
    time_step: u64,
}

impl Emulation {
    /// Builds an emulation run. For the TOLERANCE strategy this solves the
    /// replication CMDP with Algorithm 2 up front (the training phase the
    /// paper describes in Section X).
    ///
    /// # Errors
    ///
    /// Propagates model-construction and LP failures from `tolerance-core`.
    pub fn new(config: EmulationConfig) -> Result<Self> {
        let catalog = ContainerCatalog::paper_catalog();
        let ids_models = IdsModel::for_catalog(&catalog)?;
        let mut rng = StdRng::seed_from_u64(config.seed);

        let system_controller = config.strategy.build_system_controller(ReplicationConfig {
            s_max: config.max_nodes,
            fault_threshold: config.fault_threshold(),
            availability_target: config.availability_target,
            node_survival_probability: 1.0 - config.node_parameters.p_attack / 2.0,
        })?;

        let mut emulation = Emulation {
            catalog,
            ids_models,
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(1)),
            nodes: Vec::new(),
            system_controller,
            metrics: EvaluationMetrics::new(),
            nodes_added: 0,
            nodes_evicted: 0,
            recoveries: 0,
            time_step: 0,
            config,
        };
        for replica in 0..emulation.config.initial_nodes {
            let node = emulation.build_node(replica as NodeId, &mut rng)?;
            emulation.nodes.push(node);
        }
        Ok(emulation)
    }

    /// The configuration of this run.
    pub fn config(&self) -> &EmulationConfig {
        &self.config
    }

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

    fn build_node(&self, replica: NodeId, rng: &mut StdRng) -> Result<EmulatedNode> {
        let container = self.catalog.sample_position(rng);
        // The observation model was validated when `ids_models` was built;
        // the parameters differ per node in a jittered fleet.
        let observations = self.ids_models[container].observation_model();
        let parameters = self.sample_node_parameters(rng);
        parameters.validate_theorem1()?;
        let model = NodeModel::new_unchecked(parameters, observations.clone());
        let expected_alerts = observations.mean(NodeState::Healthy);
        // Stagger the periodic-recovery phases across nodes so that the
        // k-parallel-recovery constraint is not hit by every node requesting
        // recovery in the same step.
        let initial_phase = match self.config.strategy {
            StrategyKind::Tolerance => 0,
            StrategyKind::Baseline(_) => {
                rng.random_range(0..self.config.delta_r.unwrap_or(1).max(1))
            }
        };
        let strategy = self.config.strategy.build_node_strategy(
            model,
            expected_alerts,
            &NodeStrategyConfig {
                recovery_threshold: self.config.recovery_threshold,
                delta_r: self.config.delta_r,
                initial_phase,
            },
        )?;
        Ok(EmulatedNode {
            replica,
            container,
            state: NodeState::Healthy,
            attacker: Attacker::new(parameters.p_attack),
            strategy,
            parameters,
            compromise_started: None,
        })
    }

    /// Runs the emulation to its horizon and returns the outcome.
    ///
    /// # Errors
    ///
    /// Propagates node-construction failures when nodes are added mid-run.
    pub fn run(&mut self) -> Result<EmulationOutcome> {
        for _ in 0..self.config.horizon {
            self.step(None)?;
        }
        Ok(self.finish())
    }

    /// Runs the emulation while driving a real MinBFT cluster: recoveries,
    /// additions and evictions are mirrored into the cluster, the attacker's
    /// post-compromise behaviour is injected as Byzantine faults, and a
    /// client issues one write request per step. Returns the outcome plus the
    /// fraction of client requests that completed correctly.
    ///
    /// # Errors
    ///
    /// Propagates node-construction failures.
    pub fn run_with_consensus(&mut self, steps: u32) -> Result<(EmulationOutcome, f64)> {
        let mut cluster = self.mirrored_cluster();
        let client = cluster.add_client();
        let mut issued = 0u64;
        for step in 0..steps {
            self.step(Some(&mut cluster))?;
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
        Ok((self.finish(), success_rate))
    }

    /// A MinBFT cluster over this run's initial nodes, for [`Emulation::step`]
    /// to mirror.
    fn mirrored_cluster(&self) -> MinBftCluster {
        MinBftCluster::new(MinBftConfig {
            initial_replicas: self.config.initial_nodes,
            parallel_recoveries: self.config.parallel_recoveries,
            seed: self.config.seed,
            ..MinBftConfig::default()
        })
    }

    fn finish(&mut self) -> EmulationOutcome {
        // Charge intrusions that were never recovered.
        for node in &self.nodes {
            if node.compromise_started.is_some() {
                self.metrics.record_unrecovered_intrusion();
            }
        }
        EmulationOutcome {
            metrics: self.metrics.report(),
            nodes_added: self.nodes_added,
            nodes_evicted: self.nodes_evicted,
            recoveries: self.recoveries,
            final_nodes: self.nodes.len(),
        }
    }

    /// Executes one time-step of the closed loop.
    fn step(&mut self, mut cluster: Option<&mut MinBftCluster>) -> Result<()> {
        self.time_step += 1;
        let time_step = self.time_step;
        let fault_threshold = self.config.fault_threshold();
        let mut requests: Vec<(usize, f64)> = Vec::new();
        let mut baseline_wants_node = false;
        let mut reports: Vec<Option<f64>> = Vec::with_capacity(self.nodes.len());

        // --- Per-node dynamics: attacker, IDS, local decision. ---
        let attack_factor = self.config.attack_profile.intensity_factor(time_step);
        for (index, node) in self.nodes.iter_mut().enumerate() {
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

            // IDS observation.
            let step_intensity = node.attacker.step_intensity(container);
            let alerts = self.ids_models[node.container].sample_alerts(
                node.state,
                step_intensity,
                &mut self.rng,
            );

            // Local decision.
            if node.state == NodeState::Crashed {
                reports.push(None);
                continue;
            }
            let decision = node.strategy.observe_and_decide(alerts);
            if node.strategy.wants_additional_node(alerts as f64) {
                baseline_wants_node = true;
            }
            reports.push(node.strategy.belief());
            if decision == RecoveryDecision::Recover {
                // Baselines track no belief: they tie and rank by index.
                requests.push((index, node.strategy.request_belief().unwrap_or(1.0)));
            }
        }

        // --- At most k parallel recoveries (Proposition 1); a deferred
        //     requester re-requests on the next step. ---
        let k = self.config.parallel_recoveries;
        let (recovered, deferred) = allocate_recoveries(&mut requests, k, |index| {
            self.rebuild(index, cluster.as_deref_mut())
        })?;
        for index in deferred {
            self.nodes[index].strategy.notify_deferred();
        }

        // --- Global level: evictions and additions. ---
        let mut added = false;
        if let Some(system) = self.system_controller.as_mut() {
            let decision = system.decide(&reports, &mut self.rng);
            // Evict crashed nodes (highest index first so removal is stable).
            let mut evict = decision.evict.clone();
            evict.sort_unstable_by(|a, b| b.cmp(a));
            for index in evict {
                if index < self.nodes.len() {
                    let replica = self.nodes.remove(index).replica;
                    self.nodes_evicted += 1;
                    if let Some(cluster) = cluster.as_deref_mut() {
                        if cluster.membership().contains(&replica) {
                            cluster.evict_replica(replica);
                        }
                    }
                }
            }
            if decision.add_node && self.nodes.len() < self.config.max_nodes {
                added = true;
            }
        } else {
            // Baselines: crashed nodes simply stay (they do not manage the
            // replication factor); PERIODIC-ADAPTIVE may add a node.
            if baseline_wants_node && self.nodes.len() < self.config.max_nodes {
                added = true;
            }
        }
        if added {
            let new_node = {
                let replica = (self.config.initial_nodes as u64 + self.nodes_added) as NodeId;
                let mut rng = StdRng::seed_from_u64(self.rng.random::<u64>());
                self.build_node(replica, &mut rng)?
            };
            self.nodes.push(new_node);
            self.nodes_added += 1;
            if let Some(cluster) = cluster {
                cluster.add_replica();
            }
        }

        // --- Record the step metrics. ---
        let failed_nodes = self
            .nodes
            .iter()
            .filter(|n| n.state != NodeState::Healthy)
            .count();
        self.metrics
            .record_step(failed_nodes, fault_threshold, recovered.len());
        Ok(())
    }

    /// Recovers the node at `index`: its replica is replaced by a fresh,
    /// randomly drawn container under the same replica id. Never refused.
    fn rebuild(&mut self, index: usize, cluster: Option<&mut MinBftCluster>) -> Result<bool> {
        if let Some(started) = self.nodes[index].compromise_started.take() {
            self.metrics.record_recovery_delay(self.time_step - started);
        }
        let replica = self.nodes[index].replica;
        let seed = self.rng.random::<u64>();
        let mut rebuilt = self.build_node(replica, &mut StdRng::seed_from_u64(seed))?;
        if !rebuilt.strategy.is_controller() {
            // Baselines restart their period after an actual recovery.
            rebuilt.strategy.notify_recovered();
        }
        self.nodes[index] = rebuilt;
        self.recoveries += 1;
        if let Some(cluster) = cluster {
            cluster.recover_replica(replica);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tolerance_core::baselines::BaselineKind;
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
        let outcome = emulation.run().unwrap();
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
        let outcome = Emulation::new(cfg).unwrap().run().unwrap();
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
        let mut crashes = vec![0u32; emulation.nodes.len()];
        for _ in 0..trials {
            for node in &mut emulation.nodes {
                node.state = NodeState::Compromised;
            }
            emulation.step(None).unwrap();
            for (count, node) in crashes.iter_mut().zip(&emulation.nodes) {
                *count += u32::from(node.state == NodeState::Crashed);
            }
        }
        let rates: Vec<f64> = crashes
            .iter()
            .map(|&count| f64::from(count) / f64::from(trials))
            .collect();
        for (rate, node) in rates.iter().zip(&emulation.nodes) {
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
        let containers = emulation.catalog.containers();
        assert_eq!(containers.len(), 10);
        assert_eq!(emulation.ids_models.len(), containers.len());
        for (prebuilt, container) in emulation.ids_models.iter().zip(containers) {
            assert_eq!(*prebuilt, IdsModel::for_container(container));
        }
    }

    #[test]
    fn rebuilt_nodes_reuse_the_prebuilt_model() {
        let mut emulation = Emulation::new(config(StrategyKind::Tolerance, Some(15), 7)).unwrap();
        let outcome = emulation.run().unwrap();
        assert!(outcome.recoveries > 0, "the run must rebuild nodes");
        let mut containers_seen = std::collections::HashSet::new();
        for node in &emulation.nodes {
            // The model a node's alerts are sampled from is its own
            // container's (catalogue positions are 0-based, ids 1-based).
            let container = &emulation.catalog.containers()[node.container];
            let ids = &emulation.ids_models[node.container];
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
        let outcome = emulation.run().unwrap();
        assert!(
            outcome.metrics.availability < 0.5,
            "NO-RECOVERY availability {} should collapse",
            outcome.metrics.availability
        );
        assert_eq!(outcome.recoveries, 0);
        assert_eq!(outcome.metrics.recovery_frequency, 0.0);
        // Unrecovered intrusions are charged the cap.
        assert!(outcome.metrics.time_to_recovery > 500.0);
    }

    #[test]
    fn periodic_baseline_sits_between_tolerance_and_no_recovery() {
        let mut tolerance = Emulation::new(config(StrategyKind::Tolerance, Some(15), 3)).unwrap();
        let tolerance_outcome = tolerance.run().unwrap();
        let mut periodic = Emulation::new(config(
            StrategyKind::Baseline(BaselineKind::Periodic),
            Some(15),
            3,
        ))
        .unwrap();
        let periodic_outcome = periodic.run().unwrap();
        let mut none = Emulation::new(config(
            StrategyKind::Baseline(BaselineKind::NoRecovery),
            Some(15),
            3,
        ))
        .unwrap();
        let none_outcome = none.run().unwrap();

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
        let outcome = adaptive.run().unwrap();
        assert!(
            outcome.nodes_added > 0,
            "the adaptive baseline should add nodes on alert bursts"
        );
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
        emulation.system_controller = None;
        let support = emulation.ids_models[0]
            .observation_model()
            .healthy_distribution()
            .len();
        let blind = vec![1.0 / support as f64; support];
        let blind = ObservationModel::from_distributions(blind.clone(), blind).unwrap();
        let model = NodeModel::new_unchecked(NodeParameters::default(), blind);
        let node_config = NodeStrategyConfig {
            recovery_threshold: 0.76,
            delta_r: None,
            initial_phase: 0,
        };
        let mut below = StrategyKind::Tolerance
            .build_node_strategy(model, 0.0, &node_config)
            .unwrap();
        loop {
            let mut next = below.clone();
            if next.observe_and_decide(0) == RecoveryDecision::Recover {
                break;
            }
            below = next;
        }
        let mut deferred = below.clone();
        deferred.observe_and_decide(0);
        deferred.notify_deferred();
        let decides_on = |strategy: &NodeStrategy| {
            let mut next = strategy.clone();
            assert_eq!(next.observe_and_decide(0), RecoveryDecision::Recover);
            next.request_belief().unwrap()
        };
        let (lower, higher) = (decides_on(&below), decides_on(&deferred));
        assert!(lower < higher, "{lower} vs {higher}");
        for (node, strategy) in emulation.nodes.iter_mut().zip([below, deferred]) {
            node.strategy = strategy;
            node.state = NodeState::Compromised;
            node.parameters.p_crash_compromised = 0.0;
        }
        emulation.nodes[2].state = NodeState::Crashed;

        emulation.step(None).unwrap();
        assert_eq!(emulation.recoveries, 1);
        assert_eq!(emulation.nodes[1].state, NodeState::Healthy, "rebuilt");
        let loser = &emulation.nodes[0].strategy;
        assert_eq!(loser.request_belief(), Some(lower));
        assert_eq!(loser.belief(), Some(lower), "the deferral restores it");

        emulation.step(None).unwrap();
        assert_eq!(emulation.recoveries, 2);
        assert_eq!(
            emulation.nodes[0].state,
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
                emulation.step(Some(&mut cluster)).unwrap();
                cluster.run_until_quiet(cluster.now() + 2.0);
                let replicas: Vec<NodeId> = emulation.nodes.iter().map(|n| n.replica).collect();
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
        let (outcome, success_rate) = emulation.run_with_consensus(40).unwrap();
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
        let outcome = emulation.run().unwrap();
        assert!(outcome.final_nodes <= 10);
        assert!(emulation.nodes.len() <= 10);
        assert_eq!(emulation.config().max_nodes, 10);
    }
}
