//! The transport-agnostic control runtime: one `tick` for every plant.
//!
//! A [`ControlPlane`] advances both control levels of one group per
//! [`ControlPlane::tick`]: node strategies fold their [`NodeReport`]s, the
//! k-slot budget of Proposition 1 grants recoveries, and the system
//! controller (Algorithm 2) evicts and joins, all through a
//! [`ClusterActuator`]. It is the one-shard `FleetControlPlane`; its plants
//! are the live threaded cluster, the simnet harness and the Table-7
//! emulation's testbed.

use crate::controlplane::actuator::ClusterActuator;
use crate::controlplane::fleet::FleetControlPlane;
use crate::error::Result;
use crate::node_model::{NodeModel, NodeParameters};
use crate::observation::ObservationModel;
use crate::runtime::NodeStrategy;
use rand::Rng;
use tolerance_consensus::NodeId;

/// Configuration of a [`ControlPlane`]. Its default node controllers run
/// [`NodeStrategy::tolerance`]: the paper's threshold
/// ([`PAPER_RECOVERY_THRESHOLD`](crate::recovery::PAPER_RECOVERY_THRESHOLD))
/// under this `delta_r`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ControlPlaneConfig {
    /// BTR period `Δ_R` (maximum steps between recoveries of one node).
    pub delta_r: Option<u32>,
    /// Whether the global replication controller (Algorithm 2) runs; without
    /// it, the baselines' node-addition wish decides the JOINs.
    pub system_controller: bool,
    /// Smallest membership the system controller may shrink a group (each
    /// shard of a fleet) to.
    pub min_replicas: usize,
    /// Largest membership a JOIN may grow a group (each shard of a fleet)
    /// to.
    pub max_replicas: usize,
    /// Fault threshold `f` the replication problem of Algorithm 2 is solved
    /// for (`N_t ≥ 2f + 1 + k`, Proposition 1).
    pub fault_threshold: usize,
    /// Availability target of the replication CMDP (its constraint).
    pub availability_target: f64,
    /// Per-step node survival probability of the replication CMDP.
    pub node_survival_probability: f64,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            delta_r: Some(12),
            system_controller: true,
            min_replicas: 4,
            max_replicas: 8,
            fault_threshold: 1,
            availability_target: 0.9,
            node_survival_probability: 0.95,
        }
    }
}

/// One node's observation input for a control tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeReport<'a> {
    /// The node failed to report (crashed); the system controller treats
    /// it as evictable (Section V-B).
    Silent,
    /// One weighted IDS-alert sample for the whole time-step (the simnet
    /// and emulation path — one deterministic draw per step): the
    /// allocation-free spelling of `Events(&[alerts])`.
    Sample(u64),
    /// The stream of weighted IDS-alert events observed since the previous
    /// tick (the live path): one belief prediction for the tick, then one
    /// `O(1)` Bayes correction per event.
    Events(&'a [u64]),
}

/// What one control tick actuated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TickReport {
    /// Nodes whose recovery was actuated successfully.
    pub recovered: Vec<NodeId>,
    /// Nodes evicted by the system controller (crash eviction).
    pub evicted: Vec<NodeId>,
    /// Replica joined this tick, if any.
    pub joined: Option<NodeId>,
}

/// The two-level control runtime of one group: shard 0 of a one-shard
/// `FleetControlPlane` (see the module docs).
#[derive(Debug, Clone)]
pub struct ControlPlane {
    fleet: FleetControlPlane,
}

impl ControlPlane {
    /// Builds a control plane over the paper's default node model and
    /// observation model.
    ///
    /// # Errors
    ///
    /// Propagates model-construction and LP failures.
    pub fn new(config: ControlPlaneConfig) -> Result<Self> {
        let node_model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default())?;
        // One shard: the fleet-wide spare budget is the group's own bound.
        let max_total_replicas = config.max_replicas;
        let fleet = FleetControlPlane::with_model(config, max_total_replicas, node_model)?;
        Ok(ControlPlane { fleet })
    }

    /// The configuration in force.
    pub fn config(&self) -> &ControlPlaneConfig {
        self.fleet.config()
    }

    /// The strategy of `node`, created on first access as the plane's
    /// default belief controller ([`NodeStrategy::tolerance`] over the
    /// paper's node model).
    pub fn controller(&mut self, node: NodeId) -> &mut NodeStrategy {
        self.fleet.controller(0, node)
    }

    /// Installs a plant's own strategy for `node`. A baseline tracks no
    /// belief; while it reports, the system controller counts it alive and
    /// healthy (belief 0 in Eq. 8) and evicts it only once it is `Silent`.
    pub fn install(&mut self, node: NodeId, strategy: NodeStrategy) {
        self.fleet.install(0, node, strategy);
    }

    /// One control time-step across both levels (`FleetControlPlane::tick`
    /// at one shard); `observations` lists the membership **in membership
    /// order** with each node's IDS input.
    pub fn tick<A: ClusterActuator + ?Sized, R: Rng + ?Sized>(
        &mut self,
        observations: &[(NodeId, NodeReport<'_>)],
        actuator: &mut A,
        rng: &mut R,
    ) -> TickReport {
        let tick = self.fleet.tick(&[observations], &mut [actuator], rng);
        let (recovered, _) = self.fleet.requests();
        TickReport {
            recovered: recovered.iter().map(|&((_, id), _)| id).collect(),
            evicted: tick.evicted.iter().map(|&(_, id)| id).collect(),
            joined: tick.joined.map(|(_, id)| id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::BaselineKind;
    use crate::runtime::StrategyKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// A scripted in-memory cluster: actuation becomes bookkeeping.
    struct FakeCluster {
        members: BTreeSet<NodeId>,
        next: NodeId,
        refuse_recovery: bool,
        recovered: Vec<NodeId>,
    }

    impl FakeCluster {
        fn new(n: NodeId) -> Self {
            FakeCluster {
                members: (0..n).collect(),
                next: n,
                refuse_recovery: false,
                recovered: Vec::new(),
            }
        }
    }

    impl ClusterActuator for FakeCluster {
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

    fn observations(cluster: &FakeCluster, alerts: u64) -> Vec<(NodeId, u64)> {
        cluster.members.iter().map(|&id| (id, alerts)).collect()
    }

    #[test]
    fn sustained_alerts_trigger_a_recovery_through_the_actuator() {
        let mut plane = ControlPlane::new(ControlPlaneConfig {
            system_controller: false,
            delta_r: None,
            ..ControlPlaneConfig::default()
        })
        .unwrap();
        let mut cluster = FakeCluster::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut recovered = false;
        for _ in 0..12 {
            let observed: Vec<(NodeId, NodeReport<'_>)> = observations(&cluster, 10)
                .into_iter()
                .map(|(id, alerts)| (id, NodeReport::Sample(alerts)))
                .collect();
            let tick = plane.tick(&observed, &mut cluster, &mut rng);
            assert!(
                tick.recovered.len() <= 1,
                "the k = 1 constraint bounds per-tick recoveries"
            );
            if !tick.recovered.is_empty() {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "max-priority alerts must actuate a recovery");
        assert_eq!(cluster.recovered.len(), 1);
        // The recovered node's belief reset to the attack prior.
        let id = cluster.recovered[0];
        assert!(plane.fleet.controller_of(0, id).unwrap().belief().unwrap() < 0.2);
    }

    #[test]
    fn deferred_recoveries_keep_requesting() {
        let mut plane = ControlPlane::new(ControlPlaneConfig {
            system_controller: false,
            delta_r: Some(3),
            ..ControlPlaneConfig::default()
        })
        .unwrap();
        let mut cluster = FakeCluster::new(4);
        cluster.refuse_recovery = true;
        let mut rng = StdRng::seed_from_u64(2);
        let mut requested_ticks = 0;
        let mut first_request = None;
        for tick_index in 0..8 {
            let observed: Vec<(NodeId, NodeReport<'_>)> = cluster
                .members
                .iter()
                .map(|&id| (id, NodeReport::Sample(0)))
                .collect();
            let tick = plane.tick(&observed, &mut cluster, &mut rng);
            assert!(tick.recovered.is_empty(), "actuation was refused");
            let (recovered, deferred) = plane.fleet.requests();
            if !recovered.is_empty() || !deferred.is_empty() {
                first_request.get_or_insert(tick_index);
                requested_ticks += 1;
            }
        }
        // Deferral semantics: once a node's recovery request is refused it
        // stays due and re-fires on *every* subsequent tick (the belief /
        // BTR clock is restored by `notify_deferred`), not just every Δ_R.
        let first = first_request.expect("the BTR clock must force a request");
        assert_eq!(
            requested_ticks,
            8 - first,
            "a refused recovery must re-request on every subsequent tick"
        );
    }

    #[test]
    fn system_level_evicts_silent_nodes_and_restores_n_via_join() {
        let mut plane = ControlPlane::new(ControlPlaneConfig {
            system_controller: true,
            min_replicas: 3,
            max_replicas: 8,
            // f = 2 with a strict availability target: Algorithm 2 adds
            // with high probability whenever ≤ 3 nodes are estimated
            // healthy, which a 4-node cluster with one silent member
            // always hits.
            fault_threshold: 2,
            availability_target: 0.98,
            ..ControlPlaneConfig::default()
        })
        .unwrap();
        let mut cluster = FakeCluster::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        // Node 2 stops reporting: it must be evicted, and with few healthy
        // nodes the replication controller must eventually JOIN a fresh one.
        let mut evicted = false;
        let mut joined = false;
        for _ in 0..20 {
            let observed: Vec<(NodeId, NodeReport<'_>)> = cluster
                .members
                .iter()
                .map(|&id| {
                    if id == 2 && !evicted {
                        (id, NodeReport::Silent)
                    } else {
                        (id, NodeReport::Sample(2))
                    }
                })
                .collect();
            let tick = plane.tick(&observed, &mut cluster, &mut rng);
            if tick.evicted.contains(&2) {
                evicted = true;
                assert!(!cluster.contains(2));
                assert!(
                    plane.fleet.controller_of(0, 2).is_none(),
                    "controller dropped"
                );
            }
            if tick.joined.is_some() {
                joined = true;
            }
            if evicted && joined && cluster.replica_count() >= 4 {
                break;
            }
        }
        assert!(evicted, "the silent node must be evicted");
        assert!(joined, "the system controller must restore n via JOIN");
        assert!(cluster.replica_count() >= 4);
    }

    #[test]
    fn a_reporting_baseline_is_alive_to_the_system_controller() {
        // A baseline tracks no belief, but it reported: only the silent node
        // is evicted, however low the replica floor.
        let mut plane = ControlPlane::new(ControlPlaneConfig {
            system_controller: true,
            min_replicas: 0,
            ..ControlPlaneConfig::default()
        })
        .unwrap();
        let mut cluster = FakeCluster::new(5);
        let model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        let periodic = StrategyKind::Baseline(BaselineKind::Periodic);
        for id in 0..5 {
            plane.install(
                id,
                periodic.build_node_strategy(model.clone(), 1.0, Some(12), 0),
            );
        }
        let observed: Vec<(NodeId, NodeReport<'_>)> = (0..5)
            .map(|id| match id {
                4 => (id, NodeReport::Silent),
                _ => (id, NodeReport::Sample(0)),
            })
            .collect();
        let tick = plane.tick(&observed, &mut cluster, &mut StdRng::seed_from_u64(6));
        assert_eq!(tick.evicted, [4]);
        assert!((0..4).all(|id| cluster.contains(id)));
    }

    #[test]
    fn event_stream_reports_drive_the_same_loop() {
        let mut plane = ControlPlane::new(ControlPlaneConfig {
            system_controller: false,
            delta_r: None,
            ..ControlPlaneConfig::default()
        })
        .unwrap();
        let mut cluster = FakeCluster::new(4);
        let mut rng = StdRng::seed_from_u64(4);
        let burst = [10u64, 10, 10, 9, 10];
        let quiet = [0u64, 1];
        let mut recovered = false;
        for _ in 0..6 {
            let observed: Vec<(NodeId, NodeReport<'_>)> = cluster
                .members
                .iter()
                .map(|&id| {
                    if id == 1 {
                        (id, NodeReport::Events(&burst))
                    } else {
                        (id, NodeReport::Events(&quiet))
                    }
                })
                .collect();
            let tick = plane.tick(&observed, &mut cluster, &mut rng);
            if tick.recovered.contains(&1) {
                recovered = true;
                break;
            }
            assert!(
                !tick.recovered.iter().any(|&id| id != 1),
                "quiet nodes must not recover"
            );
        }
        assert!(recovered, "a dense alert burst must actuate recovery");
    }

    #[test]
    fn a_sample_and_a_one_event_stream_are_the_same_report() {
        // `Sample(a)` is `Events(&[a])`: two planes fed the same alerts, one
        // as samples and one as one-event streams, hold bit-identical beliefs
        // after every tick and actuate the same recoveries, evictions and
        // joins. Alerts 11 and 99 lie outside the support: zero likelihood
        // in both states leaves the belief as predicted on either path.
        let config = ControlPlaneConfig {
            delta_r: None,
            ..ControlPlaneConfig::default()
        };
        let mut sampled = ControlPlane::new(config.clone()).unwrap();
        let mut streamed = ControlPlane::new(config).unwrap();
        let (mut sampled_cluster, mut streamed_cluster) =
            (FakeCluster::new(4), FakeCluster::new(4));
        let (mut sampled_rng, mut streamed_rng) =
            (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        let alerts: Vec<u64> = (0..40u64)
            .map(|t| [t % 11, (t * 7) % 12, 99, 10][(t % 4) as usize])
            .collect();
        let mut recoveries = 0;
        for (tick_index, window) in alerts.windows(4).enumerate() {
            let members: Vec<NodeId> = sampled_cluster.members.iter().copied().collect();
            let alert_of = |index: usize| window[index % window.len()];
            let samples: Vec<(NodeId, NodeReport<'_>)> = members
                .iter()
                .enumerate()
                .map(|(index, &id)| (id, NodeReport::Sample(alert_of(index))))
                .collect();
            let events: Vec<[u64; 1]> = (0..members.len()).map(|index| [alert_of(index)]).collect();
            let streams: Vec<(NodeId, NodeReport<'_>)> = members
                .iter()
                .zip(&events)
                .map(|(&id, event)| (id, NodeReport::Events(event)))
                .collect();
            let sampled_tick = sampled.tick(&samples, &mut sampled_cluster, &mut sampled_rng);
            let streamed_tick = streamed.tick(&streams, &mut streamed_cluster, &mut streamed_rng);
            assert_eq!(sampled_tick, streamed_tick, "tick {tick_index}");
            recoveries += sampled_tick.recovered.len();
            for &id in &members {
                let belief = |plane: &ControlPlane| {
                    plane
                        .fleet
                        .controller_of(0, id)
                        .and_then(NodeStrategy::belief)
                        .map(f64::to_bits)
                };
                assert_eq!(
                    belief(&sampled),
                    belief(&streamed),
                    "tick {tick_index} node {id}"
                );
            }
        }
        assert_eq!(sampled_cluster.recovered, streamed_cluster.recovered);
        assert!(recoveries > 0, "the sequence must exercise a recovery");
    }
}
