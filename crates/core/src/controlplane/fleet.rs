//! The fleet-level control plane of the sharded service: one global
//! recovery budget, one system controller, many MinBFT groups.
//!
//! Each shard keeps its own per-node belief controllers (the local control
//! level is unchanged), but the **k-parallel-recovery budget of
//! Proposition 1 is allocated fleet-wide**: every tick the recovery
//! requests of all shards compete for the same `k` slots, prioritized by
//! the *deciding* belief — so an intrusion burst in shard A cannot starve
//! recovery in shard B beyond the shared budget, and a deferred request
//! (lost the priority sort, or refused by the actuator) genuinely re-fires
//! on the next tick through [`NodeController::notify_deferred`].
//!
//! The global level likewise runs **one** [`SystemController`] per fleet:
//! it sees the concatenated belief report of every shard, evicts
//! non-reporting (crashed) replicas wherever they live, and allocates
//! JOIN spares to the *neediest* shard — the one with the fewest healthy
//! replicas — subject to per-shard and fleet-wide membership bounds.
//!
//! The single-cluster [`ControlPlane`](super::ControlPlane) that steers the
//! live service is its one-shard view, so the live planes and the simnet
//! harness share this implementation of the two control laws, and the k-slot
//! budget itself is [`allocate_recoveries`], which the Table-7 emulation loop
//! calls too: every closed loop grants recoveries by the one rule.

use crate::controller::{allocate_recoveries, NodeController, SystemController};
use crate::controlplane::actuator::ClusterActuator;
use crate::controlplane::runtime::{ControlPlaneConfig, NodeReport};
use crate::error::Result;
use crate::node_model::{NodeAction, NodeModel};
use crate::recovery::ThresholdStrategy;
use crate::replication::{ReplicationConfig, ReplicationProblem};
use rand::Rng;
use std::collections::BTreeMap;
use std::convert::Infallible;
use tolerance_consensus::NodeId;

/// What one fleet tick did. Nodes are addressed as `(shard, node)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct FleetTickReport {
    /// Per-shard, per-node beliefs after the update, in observation order
    /// (`None` = the node failed to report).
    pub beliefs: Vec<Vec<(NodeId, Option<f64>)>>,
    /// Recovery requests this tick (before the global k-truncation), in
    /// deciding-belief priority order.
    pub requested: Vec<(usize, NodeId)>,
    /// Recoveries actuated within the global budget.
    pub recovered: Vec<(usize, NodeId)>,
    /// Requests deferred to the next tick (budget exhausted or actuator
    /// refused).
    pub deferred: Vec<(usize, NodeId)>,
    /// Nodes evicted by the system controller.
    pub evicted: Vec<(usize, NodeId)>,
    /// The shard that received a JOIN this tick, with the new replica.
    pub joined: Option<(usize, NodeId)>,
    /// The fleet-wide expected-healthy estimate the system controller
    /// acted on.
    pub estimated_healthy: Option<usize>,
}

/// The fleet control runtime (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct FleetControlPlane {
    /// The control laws' parameters; `parallel_recoveries` is the **global**
    /// budget `k` and the membership bounds hold per shard.
    config: ControlPlaneConfig,
    /// The fleet's spare budget: JOINs stop once the total replica count
    /// across shards reaches this.
    max_total_replicas: usize,
    node_model: NodeModel,
    strategy: ThresholdStrategy,
    controllers: BTreeMap<(usize, NodeId), NodeController>,
    system: Option<SystemController>,
}

impl FleetControlPlane {
    /// Builds a fleet control plane over an explicit node model; the system
    /// controller solves the replication CMDP for `max_total_replicas`.
    ///
    /// # Errors
    ///
    /// Propagates strategy-construction and LP failures.
    pub(crate) fn with_model(
        config: ControlPlaneConfig,
        max_total_replicas: usize,
        node_model: NodeModel,
    ) -> Result<Self> {
        let strategy = ThresholdStrategy::new(vec![config.recovery_threshold], config.delta_r)?;
        let system = if config.system_controller {
            let strategy = ReplicationProblem::new(ReplicationConfig {
                s_max: max_total_replicas,
                fault_threshold: config.fault_threshold.max(1),
                availability_target: config.availability_target,
                node_survival_probability: config.node_survival_probability,
            })?
            .solve()?;
            Some(SystemController::new(strategy))
        } else {
            None
        };
        Ok(FleetControlPlane {
            config,
            max_total_replicas,
            node_model,
            strategy,
            controllers: BTreeMap::new(),
            system,
        })
    }

    /// The configuration in force.
    pub(crate) fn config(&self) -> &ControlPlaneConfig {
        &self.config
    }

    /// The node controller of `(shard, node)`, creating it on first access.
    pub fn controller(&mut self, shard: usize, node: NodeId) -> &mut NodeController {
        let node_model = &self.node_model;
        let strategy = &self.strategy;
        self.controllers
            .entry((shard, node))
            .or_insert_with(|| NodeController::new(node_model.clone(), strategy.clone()))
    }

    /// Read-only view of a node's controller, if it exists.
    #[cfg(test)]
    pub(crate) fn controller_of(&self, shard: usize, node: NodeId) -> Option<&NodeController> {
        self.controllers.get(&(shard, node))
    }

    /// Drops the controller of an evicted node.
    pub(crate) fn forget(&mut self, shard: usize, node: NodeId) {
        self.controllers.remove(&(shard, node));
    }

    /// One control time-step across the whole fleet
    /// ([`super::ControlPlane::tick`] is this at one shard).
    ///
    /// `observations[s]` lists shard `s`'s membership **in membership
    /// order** with each node's IDS input (the system controller's eviction
    /// decision indexes into the concatenation, and the deterministic
    /// simnet path replays `rng` draws in this order); `actuators[s]` is
    /// that shard's actuation surface. The two slices must have the same
    /// length (one entry per shard).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree.
    pub fn tick<'a, O, A, R>(
        &mut self,
        observations: &[O],
        actuators: &mut [&mut A],
        rng: &mut R,
    ) -> FleetTickReport
    where
        O: AsRef<[(NodeId, NodeReport<'a>)]>,
        A: ClusterActuator + ?Sized,
        R: Rng + ?Sized,
    {
        assert_eq!(
            observations.len(),
            actuators.len(),
            "one actuator per shard"
        );
        let mut report = FleetTickReport::default();
        // Local level: fold every shard's observations through its node
        // controllers and collect the fleet-wide recovery requests with
        // their deciding beliefs.
        let mut requests: Vec<((usize, NodeId), f64)> = Vec::new();
        for (shard, shard_observations) in observations.iter().enumerate() {
            let shard_observations = shard_observations.as_ref();
            let mut beliefs: Vec<(NodeId, Option<f64>)> =
                Vec::with_capacity(shard_observations.len());
            for &(id, observation) in shard_observations {
                let action = match observation {
                    NodeReport::Silent => {
                        beliefs.push((id, None));
                        continue;
                    }
                    NodeReport::Sample(alerts) => {
                        self.controller(shard, id).observe_and_decide(alerts)
                    }
                    NodeReport::Events(events) => self.controller(shard, id).observe_events(events),
                };
                let controller = self
                    .controllers
                    .get(&(shard, id))
                    .expect("controller exists");
                beliefs.push((id, Some(controller.belief())));
                if action == NodeAction::Recover {
                    // Priority by the *deciding* belief: `belief()` was
                    // already reset to the attack prior when the decision
                    // fired, which would make every requester tie and
                    // degrade the k-slot priority to node-id order.
                    requests.push(((shard, id), controller.last_request_belief()));
                }
            }
            report.beliefs.push(beliefs);
        }
        // Global budget (Proposition 1), fleet-wide; a deferred request
        // re-fires next tick.
        let Ok(allocation) = allocate_recoveries(
            &mut requests,
            self.config.parallel_recoveries,
            |(shard, id)| Ok::<_, Infallible>(actuators[shard].recover(id)),
        );
        (report.recovered, report.deferred) = allocation;
        report.requested = requests.iter().map(|&(key, _)| key).collect();
        for key in &report.recovered {
            if let Some(controller) = self.controllers.get_mut(key) {
                controller.notify_recovered();
            }
        }
        for key in &report.deferred {
            if let Some(controller) = self.controllers.get_mut(key) {
                controller.notify_deferred();
            }
        }
        // Global level: one system controller over the concatenated belief
        // report. Evictions route back to the owning shard; the JOIN spare
        // goes to the neediest shard.
        if let Some(system) = &mut self.system {
            let mut index_map: Vec<(usize, NodeId)> = Vec::new();
            let mut reports: Vec<Option<f64>> = Vec::new();
            for (shard, beliefs) in report.beliefs.iter().enumerate() {
                for &(id, belief) in beliefs {
                    index_map.push((shard, id));
                    reports.push(belief);
                }
            }
            let decision = system.decide(&reports, rng);
            report.estimated_healthy = Some(decision.estimated_healthy);
            let mut evict: Vec<(usize, NodeId)> = decision
                .evict
                .iter()
                .filter_map(|&index| index_map.get(index).copied())
                .collect();
            evict.sort_unstable();
            for (shard, id) in evict {
                if actuators[shard].contains(id)
                    && actuators[shard].replica_count() > self.config.min_replicas
                    && actuators[shard].evict(id)
                {
                    self.controllers.remove(&(shard, id));
                    report.evicted.push((shard, id));
                }
            }
            if decision.add_node {
                let total: usize = actuators.iter().map(|a| a.replica_count()).sum();
                if total < self.max_total_replicas {
                    // Neediest shard: fewest healthy-looking reporters,
                    // ties broken by smallest membership then shard index.
                    let target = report
                        .beliefs
                        .iter()
                        .enumerate()
                        .filter(|&(shard, _)| {
                            actuators[shard].replica_count() < self.config.max_replicas
                        })
                        .min_by_key(|&(shard, beliefs)| {
                            let healthy = beliefs
                                .iter()
                                .filter(|(_, b)| b.is_some_and(|b| b < 0.5))
                                .count();
                            (healthy, actuators[shard].replica_count(), shard)
                        })
                        .map(|(shard, _)| shard);
                    if let Some(shard) = target {
                        if let Some(id) = actuators[shard].join() {
                            self.controller(shard, id);
                            report.joined = Some((shard, id));
                        }
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_model::NodeParameters;
    use crate::observation::ObservationModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    struct FakeShard {
        members: BTreeSet<NodeId>,
        next: NodeId,
        refuse_recovery: bool,
        recovered: Vec<NodeId>,
    }

    impl FakeShard {
        fn new(n: NodeId) -> Self {
            FakeShard {
                members: (0..n).collect(),
                next: n,
                refuse_recovery: false,
                recovered: Vec::new(),
            }
        }
    }

    impl ClusterActuator for FakeShard {
        fn replica_count(&self) -> usize {
            self.members.len()
        }
        fn contains(&self, node: NodeId) -> bool {
            self.members.contains(&node)
        }
        fn recover(&mut self, node: NodeId) -> bool {
            if self.refuse_recovery || !self.members.contains(&node) {
                return false;
            }
            self.recovered.push(node);
            true
        }
        fn join(&mut self) -> Option<NodeId> {
            let id = self.next;
            self.next += 1;
            self.members.insert(id);
            Some(id)
        }
        fn evict(&mut self, node: NodeId) -> bool {
            self.members.remove(&node)
        }
    }

    /// A fleet plane over the paper's node model.
    fn plane(config: ControlPlaneConfig, max_total_replicas: usize) -> FleetControlPlane {
        let model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        FleetControlPlane::with_model(config, max_total_replicas, model).unwrap()
    }

    fn fleet(k: usize, system: bool) -> FleetControlPlane {
        let config = ControlPlaneConfig {
            parallel_recoveries: k,
            system_controller: system,
            delta_r: None,
            ..ControlPlaneConfig::default()
        };
        plane(config, 16)
    }

    /// Events observations for a two-shard fleet: shard 0 node 1 sees a
    /// dense burst, shard 1 node 2 a slightly sparser one; everyone else is
    /// quiet.
    fn two_shard_observations<'a>(
        shards: &[FakeShard],
        hot: &'a [u64],
        warm: &'a [u64],
        quiet: &'a [u64],
    ) -> Vec<Vec<(NodeId, NodeReport<'a>)>> {
        shards
            .iter()
            .enumerate()
            .map(|(shard, fake)| {
                fake.members
                    .iter()
                    .map(|&id| {
                        let report = if shard == 0 && id == 1 {
                            NodeReport::Events(hot)
                        } else if shard == 1 && id == 2 {
                            NodeReport::Events(warm)
                        } else {
                            NodeReport::Events(quiet)
                        };
                        (id, report)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn global_budget_prioritizes_the_higher_belief_shard_and_defers_the_other() {
        // Global k = 1 with simultaneous compromises in two shards: the
        // shard whose controller decided on the higher belief recovers
        // first; the deferred shard's request genuinely re-fires on the
        // next tick (the cross-shard extension of PR 4's notify_deferred
        // coverage).
        let mut plane = fleet(1, false);
        let mut shards = [FakeShard::new(4), FakeShard::new(4)];
        let mut rng = StdRng::seed_from_u64(7);
        let hot = [10u64, 10, 10, 10, 10, 10];
        let warm = [10u64, 10, 10, 10];
        let quiet = [0u64];
        let mut first: Option<FleetTickReport> = None;
        for _ in 0..10 {
            let observations = two_shard_observations(&shards, &hot, &warm, &quiet);
            let (left, right) = shards.split_at_mut(1);
            let mut actuators: Vec<&mut dyn ClusterActuator> = vec![&mut left[0], &mut right[0]];
            let tick = plane.tick(&observations, &mut actuators, &mut rng);
            if tick.requested.len() >= 2 {
                first = Some(tick);
                break;
            }
            assert!(
                tick.recovered.len() <= 1,
                "the global k = 1 budget bounds per-tick recoveries"
            );
        }
        let first = first.expect("both compromises must eventually request");
        // Priority order: the denser burst (shard 0, node 1) decided on a
        // higher belief and wins the single slot.
        assert_eq!(first.requested[0], (0, 1));
        assert_eq!(first.recovered, vec![(0, 1)]);
        assert!(first.deferred.contains(&(1, 2)), "{first:?}");

        // The deferred shard re-fires immediately on the next tick and now
        // wins the freed slot.
        let observations = two_shard_observations(&shards, &quiet, &quiet, &quiet);
        let (left, right) = shards.split_at_mut(1);
        let mut actuators: Vec<&mut dyn ClusterActuator> = vec![&mut left[0], &mut right[0]];
        let tick = plane.tick(&observations, &mut actuators, &mut rng);
        assert!(
            tick.recovered.contains(&(1, 2)),
            "the deferred shard must recover next tick: {tick:?}"
        );
        assert_eq!(shards[0].recovered, vec![1]);
        assert_eq!(shards[1].recovered, vec![2]);
    }

    #[test]
    fn refused_recoveries_do_not_consume_the_global_budget() {
        let mut plane = fleet(1, false);
        let mut shards = [FakeShard::new(4), FakeShard::new(4)];
        shards[0].refuse_recovery = true;
        let mut rng = StdRng::seed_from_u64(9);
        let hot = [10u64, 10, 10, 10, 10, 10];
        let warm = [10u64, 10, 10, 10];
        let quiet = [0u64];
        let mut recovered_other = false;
        for _ in 0..10 {
            let observations = two_shard_observations(&shards, &hot, &warm, &quiet);
            let (left, right) = shards.split_at_mut(1);
            let mut actuators: Vec<&mut dyn ClusterActuator> = vec![&mut left[0], &mut right[0]];
            let tick = plane.tick(&observations, &mut actuators, &mut rng);
            if tick.recovered.contains(&(1, 2)) {
                // Shard 0's refusal must not have eaten the only slot.
                recovered_other = true;
                assert!(tick.deferred.contains(&(0, 1)), "{tick:?}");
                break;
            }
        }
        assert!(
            recovered_other,
            "a refused recovery must hand the slot to the next shard"
        );
        assert!(shards[0].recovered.is_empty());
    }

    #[test]
    fn fleet_system_level_evicts_across_shards_and_joins_the_neediest() {
        let config = ControlPlaneConfig {
            system_controller: true,
            min_replicas: 3,
            max_replicas: 8,
            // f = 4 over the 8-replica fleet with a strict availability
            // target: Algorithm 2 adds whenever ≤ 6 nodes are estimated
            // healthy — exactly the fleet's state once one replica stops
            // reporting — and never at ≥ 7, so the spare allocation is
            // prompt and drift-free.
            fault_threshold: 4,
            availability_target: 0.98,
            ..ControlPlaneConfig::default()
        };
        let mut plane = plane(config, 12);
        let mut shards = [FakeShard::new(4), FakeShard::new(4)];
        let mut rng = StdRng::seed_from_u64(3);
        // Shard 1's node 2 stops reporting: the fleet controller must evict
        // it from shard 1 (not shard 0) and route the JOIN spare to the
        // shard that lost a member.
        let mut evicted = false;
        let mut joined_shard = None;
        for _ in 0..25 {
            let observations: Vec<Vec<(NodeId, NodeReport<'_>)>> = shards
                .iter()
                .enumerate()
                .map(|(shard, fake)| {
                    fake.members
                        .iter()
                        .map(|&id| {
                            if shard == 1 && id == 2 && !evicted {
                                (id, NodeReport::Silent)
                            } else {
                                (id, NodeReport::Sample(2))
                            }
                        })
                        .collect()
                })
                .collect();
            let (left, right) = shards.split_at_mut(1);
            let mut actuators: Vec<&mut dyn ClusterActuator> = vec![&mut left[0], &mut right[0]];
            let tick = plane.tick(&observations, &mut actuators, &mut rng);
            if tick.evicted.contains(&(1, 2)) {
                evicted = true;
                assert!(plane.controller_of(1, 2).is_none(), "controller dropped");
            }
            if let Some((shard, _)) = tick.joined {
                joined_shard = Some(shard);
            }
            if evicted && joined_shard.is_some() {
                break;
            }
        }
        assert!(evicted, "the silent node must be evicted from its shard");
        assert!(!shards[1].contains(2));
        assert!(shards[0].contains(2), "shard 0's node 2 must be untouched");
        assert_eq!(
            joined_shard,
            Some(1),
            "the JOIN spare must go to the shard that lost a member"
        );
    }
}
