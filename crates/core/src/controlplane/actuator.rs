//! The unified actuation interface of the two-level control plane.
//!
//! The controllers compute *decisions* (recover replica `i`, grow the
//! membership); a [`ClusterActuator`] turns them into *actions* on a
//! cluster. Two implementations ship:
//!
//! * the simulated [`MinBftCluster`] — direct method calls into the
//!   discrete-event cluster, fully deterministic, checked by the simnet
//!   invariant oracles, and
//! * the live [`ThreadedCluster`] — control messages delivered over the
//!   running service's transport
//!   ([`tolerance_consensus::minbft::ControlMessage`]), so recovery and
//!   reconfiguration act on real replica threads at wall-clock speed.
//!
//! The simnet group executor wraps the simulated cluster in its own
//! actuator to add fault-schedule bookkeeping (restart-vs-rebuild choice,
//! recovery latency accounting); see `crate::simnet::group`.

use tolerance_consensus::{MinBftCluster, NodeId, ThreadedCluster};

/// Actuation surface the [`crate::controlplane::ControlPlane`] drives: the
/// recovery path of the local control level plus the JOIN/EVICT
/// reconfiguration of the global level.
pub trait ClusterActuator {
    /// Number of replicas currently in the membership.
    fn replica_count(&self) -> usize;

    /// Whether `node` is currently a member.
    fn contains(&self, node: NodeId) -> bool;

    /// Actuates a recovery of `node` (rebuild + state transfer). Returns
    /// `false` when the command could not be delivered (unknown node, or
    /// its replica is gone); the controller's BTR clock keeps standing and
    /// it re-actuates on a later tick.
    fn recover(&mut self, node: NodeId) -> bool;

    /// Actuates a JOIN reconfiguration; returns the new replica's id, or
    /// `None` when the platform refused.
    fn join(&mut self) -> Option<NodeId>;

    /// Actuates an EVICT reconfiguration; returns `false` when refused.
    fn evict(&mut self, node: NodeId) -> bool;
}

impl ClusterActuator for MinBftCluster {
    fn replica_count(&self) -> usize {
        self.num_replicas()
    }

    fn contains(&self, node: NodeId) -> bool {
        self.membership().contains(&node)
    }

    fn recover(&mut self, node: NodeId) -> bool {
        if !self.membership().contains(&node) {
            return false;
        }
        self.recover_replica(node)
    }

    fn join(&mut self) -> Option<NodeId> {
        Some(self.add_replica())
    }

    fn evict(&mut self, node: NodeId) -> bool {
        if !self.membership().contains(&node) {
            return false;
        }
        self.evict_replica(node);
        true
    }
}

impl ClusterActuator for ThreadedCluster {
    fn replica_count(&self) -> usize {
        self.num_replicas()
    }

    fn contains(&self, node: NodeId) -> bool {
        self.membership().contains(&node)
    }

    fn recover(&mut self, node: NodeId) -> bool {
        ThreadedCluster::recover(self, node)
    }

    fn join(&mut self) -> Option<NodeId> {
        Some(ThreadedCluster::join(self))
    }

    fn evict(&mut self, node: NodeId) -> bool {
        ThreadedCluster::evict(self, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tolerance_consensus::{MinBftConfig, ThreadedServiceConfig};

    #[test]
    fn simulated_cluster_actuates_through_the_trait() {
        let mut cluster = MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            ..MinBftConfig::default()
        });
        let actuator: &mut dyn ClusterActuator = &mut cluster;
        assert_eq!(actuator.replica_count(), 4);
        assert!(actuator.contains(0));
        assert!(!actuator.contains(99));
        assert!(!actuator.recover(99));
        let joined = actuator.join().expect("join succeeds");
        assert_eq!(actuator.replica_count(), 5);
        assert!(actuator.evict(joined));
        assert!(!actuator.evict(joined));
        assert_eq!(actuator.replica_count(), 4);
        assert!(actuator.recover(1), "recovery with live donors starts");
    }

    #[test]
    fn threaded_cluster_actuates_through_the_trait() {
        let mut cluster = ThreadedCluster::new(&ThreadedServiceConfig {
            replicas: 4,
            duration: 0.1,
            ..ThreadedServiceConfig::default()
        });
        {
            let actuator: &mut dyn ClusterActuator = &mut cluster;
            assert_eq!(actuator.replica_count(), 4);
            assert!(!actuator.recover(42));
            let joined = actuator.join().expect("join succeeds");
            assert_eq!(actuator.replica_count(), 5);
            assert!(actuator.evict(joined));
            assert_eq!(actuator.replica_count(), 4);
        }
        cluster.shutdown();
    }
}
