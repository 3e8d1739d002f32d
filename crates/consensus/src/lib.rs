//! # `tolerance-consensus`
//!
//! Consensus substrate for the TOLERANCE reproduction.
//!
//! The paper's architecture (Section IV) coordinates its service replicas
//! with a *reconfigurable* MinBFT protocol under the hybrid failure model
//! (at most `f = (N - 1 - k)/2` compromised or crashed nodes, relying on a
//! tamperproof USIG service per node), and replicates the global system
//! controller with a crash-tolerant consensus protocol (not reproduced: the
//! system controller here is a single process). The paper's testbed runs
//! these protocols on 13 physical servers; this reproduction substitutes a
//! deterministic discrete-event network simulation (see DESIGN.md) that
//! exercises the same protocol logic: quorum certificates, non-equivocation
//! through USIG counters, view changes, checkpoints, state transfer and the
//! JOIN/EVICT reconfiguration used by the system controller.
//!
//! Modules:
//!
//! * [`crypto`] — simulated digital signatures and keyed message digests.
//! * [`usig`] — the Unique Sequential Identifier Generator (trusted
//!   monotonic counter) that MinBFT relies on.
//! * [`transport`] — the pluggable [`Transport`] trait the protocol code
//!   sends through, with the deterministic simulation and a multi-threaded
//!   bounded-channel implementation.
//! * [`net`] — the discrete-event network: latency, jitter, loss and
//!   partitions over authenticated channels.
//! * [`minbft`] — reconfigurable MinBFT replicas with leader-side request
//!   batching and checkpoint-driven log compaction, the cluster driver,
//!   Byzantine fault injection and the BFT client (f+1 matching replies).
//! * [`threaded`] — the same MinBFT replica code running as a real
//!   concurrent service: one thread per replica over [`ThreadedTransport`].
//! * [`wire`] — the length-prefixed binary wire codec: every
//!   [`minbft::Message`] written and read by the vendored serde shim's
//!   derive-emitted direct codec (its `Value` walker is the reference the
//!   direct path must agree with) and framed for the socket transport.
//! * [`socket`] — the third [`Transport`] impl: real loopback/LAN TCP
//!   sockets with per-connection I/O threads, bounded outbound queues and
//!   reconnect-on-drop, so a cluster runs as N separate OS processes (see
//!   the `minbft-node` binary).
//! * [`sharded`] — the horizontally scaled service plane: a hash-range
//!   [`KeyPartitioner`] routing keyed operations to S independent simulated
//!   MinBFT groups, which the client-driven two-round MultiPut protocol
//!   (ordinary `TxReserve` / `TxCommit` requests) writes across.
//! * [`workload`] — client workload generation (open/closed arrival over a
//!   key-value service) for throughput experiments.
//! * [`metrics`] — windowed data-plane metrics (request-rate counters,
//!   log-scale latency histograms) and the client retry budget; the
//!   observation side of the `core::controlplane::autotune` feedback loop.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crypto;
pub mod metrics;
pub mod minbft;
pub mod net;
pub mod sharded;
pub mod socket;
pub mod threaded;
pub mod transport;
pub mod usig;
pub mod wire;
pub mod workload;

pub use metrics::RetryBudgetConfig;
pub use minbft::{AttackerKind, ByzantineMode, MinBftCluster, MinBftConfig, CLIENT_ID_BASE};
pub use net::NetworkConfig;
pub use sharded::KeyPartitioner;
pub use socket::{SocketHandle, SocketReplicaNode, SocketStats, SocketTransport};
pub use threaded::{
    ClientDriver, ClientReport, MembershipView, ReplicaSnapshot, ThreadedCluster,
    ThreadedServiceConfig,
};
pub use transport::{ThreadedTransport, Transport};

/// Identifier of a node (replica, controller or client) in the simulated
/// system.
pub type NodeId = u32;

/// Simulated time in seconds.
pub(crate) type SimTime = f64;

/// The number of replicas that may be mid-recovery at once: the `k` of
/// Proposition 1 (`N >= 2f + 1 + k`). The paper's testbed runs `k = 1`, and
/// so does every plane here: the simulated cluster's commit and view-change
/// quorums, the live replicas, the control plane's recovery slots, the fault
/// schedules, the Table-7 emulation and the Fig. 6 MTTF analysis all read
/// this one constant.
pub const PARALLEL_RECOVERIES: usize = 1;

/// The tolerance threshold of MinBFT under the hybrid failure model with `n`
/// replicas and at most `k` parallel recoveries: `f = (n - 1 - k) / 2`
/// (Proposition 1 of the paper).
pub fn hybrid_fault_threshold(n: usize, k: usize) -> usize {
    n.saturating_sub(1 + k) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_threshold_matches_proposition_1() {
        // n = 2f + 1 + k
        assert_eq!(hybrid_fault_threshold(3, 0), 1);
        assert_eq!(hybrid_fault_threshold(4, 1), 1);
        assert_eq!(hybrid_fault_threshold(6, 1), 2);
        assert_eq!(hybrid_fault_threshold(1, 1), 0);
        // Round trip.
        for f in 0..5 {
            for k in 0..3 {
                assert_eq!(hybrid_fault_threshold(2 * f + 1 + k, k), f);
            }
        }
    }
}
