//! The fleet-level control plane of the sharded service: one global
//! recovery budget, one system controller, many MinBFT groups.
//!
//! Each node keeps its own strategy — the plane's default belief controller
//! unless its plant installed another (the emulation's TOLERANCE controllers
//! or baselines) — but the **k-slot budget of Proposition 1 is fleet-wide**:
//! the requests of all shards compete for the same `k` slots by *deciding*
//! belief. **One** [`SystemController`] sees the concatenated belief report,
//! evicts non-reporting (crashed) replicas wherever they live, and sends
//! each JOIN to the *neediest* shard within per-shard and fleet-wide bounds;
//! with it off, the baselines' node-addition wish decides the JOINs.
//!
//! The single-cluster [`ControlPlane`](super::ControlPlane) is its one-shard
//! view, and every closed loop runs this tick — the live planes, the simnet
//! harness and the Table-7 emulation — so it is the one caller of
//! [`allocate_recoveries`] and [`SystemController::decide`].

use crate::controller::{allocate_recoveries, SystemController};
use crate::controlplane::actuator::ClusterActuator;
use crate::controlplane::runtime::{ControlPlaneConfig, NodeReport};
use crate::error::Result;
use crate::node_model::{NodeAction, NodeModel};
use crate::replication::{ReplicationConfig, ReplicationProblem};
use crate::runtime::NodeStrategy;
use rand::Rng;
use std::collections::BTreeMap;
use std::convert::Infallible;
use tolerance_consensus::{NodeId, PARALLEL_RECOVERIES};

/// What one fleet tick did, nodes addressed as `(shard, node)`; the plane
/// keeps its recovery requests ([`FleetControlPlane::requests`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct FleetTickReport {
    /// Nodes evicted by the system controller.
    pub evicted: Vec<(usize, NodeId)>,
    /// The shard that received a JOIN this tick, with the new replica.
    pub joined: Option<(usize, NodeId)>,
}

/// A recovery request: the node and the belief it was decided on.
pub(crate) type Request = ((usize, NodeId), f64);

/// The fleet control runtime (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct FleetControlPlane {
    /// The control laws' parameters; the membership bounds hold per shard,
    /// and the recovery budget `k` ([`PARALLEL_RECOVERIES`]) is **global**.
    config: ControlPlaneConfig,
    /// The fleet's spare budget: JOINs stop once the total replica count
    /// across shards reaches this.
    max_total_replicas: usize,
    node_model: NodeModel,
    controllers: BTreeMap<(usize, NodeId), NodeStrategy>,
    system: Option<SystemController>,
    /// The last tick's recovery requests with their deciding beliefs, the
    /// `granted` ones first.
    requests: Vec<Request>,
    granted: usize,
    /// The last tick's beliefs, shard-major in observation order (`None` =
    /// silent): the system controller's input, kept between ticks for its
    /// allocation like `requests`. A node that reported but tracks no belief
    /// (a baseline) is alive and enters as belief 0: one healthy node in
    /// Eq. 8's estimate and in the neediest-shard count.
    reports: Vec<Option<f64>>,
}

impl FleetControlPlane {
    /// Builds a fleet control plane over an explicit node model; the system
    /// controller solves the replication CMDP for `max_total_replicas`.
    ///
    /// # Errors
    ///
    /// Propagates LP failures.
    pub(crate) fn with_model(
        config: ControlPlaneConfig,
        max_total_replicas: usize,
        node_model: NodeModel,
    ) -> Result<Self> {
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
            controllers: BTreeMap::new(),
            system,
            requests: Vec::new(),
            granted: 0,
            reports: Vec::new(),
        })
    }

    /// The configuration in force.
    pub(crate) fn config(&self) -> &ControlPlaneConfig {
        &self.config
    }

    /// Installs `strategy` as the strategy of `(shard, node)`.
    pub(crate) fn install(&mut self, shard: usize, node: NodeId, strategy: NodeStrategy) {
        self.controllers.insert((shard, node), strategy);
    }

    /// The strategy of `(shard, node)`, creating the plane's default belief
    /// controller on first access.
    pub fn controller(&mut self, shard: usize, node: NodeId) -> &mut NodeStrategy {
        let (model, delta_r) = (&self.node_model, self.config.delta_r);
        self.controllers
            .entry((shard, node))
            .or_insert_with(|| NodeStrategy::tolerance(model.clone(), delta_r))
    }

    /// Read-only view of a node's strategy, if it exists.
    #[cfg(test)]
    pub(crate) fn controller_of(&self, shard: usize, node: NodeId) -> Option<&NodeStrategy> {
        self.controllers.get(&(shard, node))
    }

    /// Drops the strategy of an evicted node.
    pub(crate) fn forget(&mut self, shard: usize, node: NodeId) {
        self.controllers.remove(&(shard, node));
    }

    /// The last tick's recovery requests with their deciding beliefs: the
    /// recovered ones and the deferred ones, each in priority order.
    pub(crate) fn requests(&self) -> (&[Request], &[Request]) {
        self.requests.split_at(self.granted)
    }

    /// The local level of one shard: folds each node's observation through
    /// its strategy (one lookup per node; a sample is a one-event stream),
    /// appends the node's belief to `reports` and its recovery request, if
    /// any, to the tick's. Returns whether a node wishes for an extra node
    /// (PERIODIC-ADAPTIVE's `o_t ≥ 2 E[O_t]`, tested per event).
    fn observe_shard(&mut self, shard: usize, observations: &[(NodeId, NodeReport<'_>)]) -> bool {
        let mut wants_node = false;
        for (id, observation) in observations {
            let events = match observation {
                NodeReport::Silent => {
                    self.reports.push(None);
                    continue;
                }
                NodeReport::Sample(alerts) => std::slice::from_ref(alerts),
                NodeReport::Events(events) => events,
            };
            let node = self.controller(shard, *id);
            wants_node |= events.iter().any(|&e| node.wants_additional_node(e as f64));
            let action = node.observe_events(events);
            // A reporting baseline is alive, not crashed (see `reports`).
            let belief = node.belief().unwrap_or(0.0);
            // Priority by the *deciding* belief: `belief()` was already reset
            // to the attack prior when the decision fired. A baseline tracks
            // no belief: baselines tie and rank by key.
            let request =
                (action == NodeAction::Recover).then(|| node.request_belief().unwrap_or(1.0));
            self.reports.push(Some(belief));
            if let Some(belief) = request {
                self.requests.push(((shard, *id), belief));
            }
        }
        wants_node
    }

    /// One control time-step across the whole fleet
    /// ([`super::ControlPlane::tick`] is this at one shard). `observations[s]`
    /// lists shard `s`'s membership **in membership order** with each node's
    /// IDS input (the eviction decision indexes into the concatenation, and
    /// the deterministic simnet path replays `rng` draws in this order);
    /// `actuators[s]` is that shard's actuation surface.
    ///
    /// # Panics
    ///
    /// Panics unless there is one actuator per shard.
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
        self.requests.clear();
        self.reports.clear();
        let mut wants_node = false;
        for (shard, shard_observations) in observations.iter().enumerate() {
            wants_node |= self.observe_shard(shard, shard_observations.as_ref());
        }
        // Global budget (Proposition 1), fleet-wide; a deferred request
        // re-fires next tick.
        let Ok(granted) =
            allocate_recoveries(&mut self.requests, PARALLEL_RECOVERIES, |(shard, id)| {
                Ok::<_, Infallible>(actuators[shard].recover(id))
            });
        self.granted = granted;
        for (index, &(key, _)) in self.requests.iter().enumerate() {
            if let Some(node) = self.controllers.get_mut(&key) {
                if index < granted {
                    node.notify_recovered();
                } else {
                    node.notify_deferred();
                }
            }
        }
        // Global level: one system controller over the concatenated belief
        // report, evictions routed back to the owning shard; without it, the
        // baselines' wish. The JOIN goes to the neediest shard.
        let add_node = match &mut self.system {
            None => wants_node,
            Some(system) => {
                let decision = system.decide(&self.reports, rng);
                let keys = || {
                    observations
                        .iter()
                        .enumerate()
                        .flat_map(|(shard, o)| o.as_ref().iter().map(move |&(id, _)| (shard, id)))
                };
                let mut evict: Vec<(usize, NodeId)> = decision
                    .evict
                    .iter()
                    .filter_map(|&index| keys().nth(index))
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
                decision.add_node
            }
        };
        if add_node
            && actuators.iter().map(|a| a.replica_count()).sum::<usize>() < self.max_total_replicas
        {
            // Neediest shard: fewest healthy-looking reporters, ties broken
            // by smallest membership then shard index.
            let mut start = 0;
            let target = observations
                .iter()
                .enumerate()
                .filter_map(|(shard, o)| {
                    let size = o.as_ref().len();
                    let beliefs = &self.reports[start..start + size];
                    start += size;
                    let members = actuators[shard].replica_count();
                    let healthy = beliefs.iter().filter(|b| b.is_some_and(|b| b < 0.5));
                    (members < self.config.max_replicas).then(|| (healthy.count(), members, shard))
                })
                .min();
            if let Some((_, _, shard)) = target {
                // The new node's strategy is made on its first tick.
                report.joined = actuators[shard].join().map(|id| (shard, id));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::BaselineKind;
    use crate::node_model::NodeParameters;
    use crate::observation::ObservationModel;
    use crate::runtime::StrategyKind;
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

    fn fleet(system: bool) -> FleetControlPlane {
        let config = ControlPlaneConfig {
            system_controller: system,
            delta_r: None,
            ..ControlPlaneConfig::default()
        };
        plane(config, 16)
    }

    /// The last tick's requested, recovered and deferred nodes.
    fn requests(plane: &FleetControlPlane) -> [Vec<(usize, NodeId)>; 3] {
        let (recovered, deferred) = plane.requests();
        let keys = |requests: &[Request]| requests.iter().map(|&(key, _)| key).collect();
        [keys(&plane.requests), keys(recovered), keys(deferred)]
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
        let mut plane = fleet(false);
        let mut shards = [FakeShard::new(4), FakeShard::new(4)];
        let mut rng = StdRng::seed_from_u64(7);
        let hot = [10u64, 10, 10, 10, 10, 10];
        let warm = [10u64, 10, 10, 10];
        let quiet = [0u64];
        let mut first = None;
        for _ in 0..10 {
            let observations = two_shard_observations(&shards, &hot, &warm, &quiet);
            let (left, right) = shards.split_at_mut(1);
            let mut actuators: Vec<&mut dyn ClusterActuator> = vec![&mut left[0], &mut right[0]];
            plane.tick(&observations, &mut actuators, &mut rng);
            let tick = requests(&plane);
            if tick[0].len() >= 2 {
                first = Some(tick);
                break;
            }
            assert!(
                tick[1].len() <= 1,
                "the global k = 1 budget bounds per-tick recoveries"
            );
        }
        let [requested, recovered, deferred] =
            first.expect("both compromises must eventually request");
        // Priority order: the denser burst (shard 0, node 1) decided on a
        // higher belief and wins the single slot.
        assert_eq!(requested[0], (0, 1));
        assert_eq!(recovered, vec![(0, 1)]);
        assert!(deferred.contains(&(1, 2)), "{deferred:?}");

        // The deferred shard re-fires immediately on the next tick and now
        // wins the freed slot.
        let observations = two_shard_observations(&shards, &quiet, &quiet, &quiet);
        let (left, right) = shards.split_at_mut(1);
        let mut actuators: Vec<&mut dyn ClusterActuator> = vec![&mut left[0], &mut right[0]];
        plane.tick(&observations, &mut actuators, &mut rng);
        let [_, recovered, _] = requests(&plane);
        assert!(
            recovered.contains(&(1, 2)),
            "the deferred shard must recover next tick: {recovered:?}"
        );
        assert_eq!(shards[0].recovered, vec![1]);
        assert_eq!(shards[1].recovered, vec![2]);
    }

    #[test]
    fn refused_recoveries_do_not_consume_the_global_budget() {
        let mut plane = fleet(false);
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
            plane.tick(&observations, &mut actuators, &mut rng);
            let [_, recovered, deferred] = requests(&plane);
            if recovered.contains(&(1, 2)) {
                // Shard 0's refusal must not have eaten the only slot.
                recovered_other = true;
                assert!(deferred.contains(&(0, 1)), "{deferred:?}");
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

    /// A PERIODIC-ADAPTIVE node whose healthy mean is 2 alerts: a sample
    /// of 4 or more is a burst.
    fn periodic_adaptive() -> NodeStrategy {
        let model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        StrategyKind::Baseline(BaselineKind::PeriodicAdaptive).build_node_strategy(
            model,
            2.0,
            Some(15),
            0,
        )
    }

    /// Node 0 of every shard sees `alerts`, every other node none.
    fn bursts(shards: &[FakeShard], alerts: u64) -> Vec<Vec<(NodeId, NodeReport<'static>)>> {
        shards
            .iter()
            .map(|fake| {
                let report = |id| NodeReport::Sample(if id == 0 { alerts } else { 0 });
                fake.members.iter().map(|&id| (id, report(id))).collect()
            })
            .collect()
    }

    #[test]
    fn baseline_join_wish_adds_one_node_per_tick_within_both_bounds() {
        // With the system controller off, the baselines' node-addition wish
        // is the global decision: one JOIN per tick while a node sees a
        // burst, until the shard reaches `max_replicas` or the fleet its
        // `max_total_replicas`.
        let config = ControlPlaneConfig {
            system_controller: false,
            max_replicas: 6,
            delta_r: None,
            ..ControlPlaneConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut plane = plane(config.clone(), 16);
        let mut shards = [FakeShard::new(4)];
        plane.install(0, 0, periodic_adaptive());
        let joins: Vec<bool> = (0..4)
            .map(|_| {
                let observations = bursts(&shards, 10);
                let mut actuators: Vec<&mut FakeShard> = shards.iter_mut().collect();
                plane
                    .tick(&observations, &mut actuators, &mut rng)
                    .joined
                    .is_some()
            })
            .collect();
        assert_eq!(joins, [true, true, false, false], "max_replicas = 6");
        assert_eq!(shards[0].replica_count(), 6);
        // A quiet step wishes for nothing.
        let mut plane = self::plane(config.clone(), 16);
        let mut quiet = [FakeShard::new(4)];
        plane.install(0, 0, periodic_adaptive());
        let observations = bursts(&quiet, 3);
        let mut actuators: Vec<&mut FakeShard> = quiet.iter_mut().collect();
        assert_eq!(
            plane.tick(&observations, &mut actuators, &mut rng).joined,
            None
        );

        // Two shards of 4 under a fleet budget of 9: one JOIN in all.
        let mut plane = self::plane(config.clone(), 9);
        let mut shards = [FakeShard::new(4), FakeShard::new(4)];
        plane.install(0, 0, periodic_adaptive());
        plane.install(1, 0, periodic_adaptive());
        let mut joined = 0;
        for _ in 0..4 {
            let observations = bursts(&shards, 10);
            let mut actuators: Vec<&mut FakeShard> = shards.iter_mut().collect();
            joined += usize::from(
                plane
                    .tick(&observations, &mut actuators, &mut rng)
                    .joined
                    .is_some(),
            );
        }
        assert_eq!(joined, 1, "max_total_replicas = 9");
        assert_eq!(
            shards.iter().map(FakeShard::replica_count).sum::<usize>(),
            9
        );

        // TOLERANCE controllers have no wish: the same bursts join nothing.
        let mut plane = self::plane(config, 16);
        let mut shards = [FakeShard::new(4)];
        for _ in 0..6 {
            let observations = bursts(&shards, 10);
            let mut actuators: Vec<&mut FakeShard> = shards.iter_mut().collect();
            assert_eq!(
                plane.tick(&observations, &mut actuators, &mut rng).joined,
                None
            );
        }
        assert_eq!(shards[0].replica_count(), 4);
    }
}
