//! The online two-level control plane: one runtime, two transports.
//!
//! Until PR 4, the paper's feedback controllers
//! ([`crate::controller::NodeController`] per replica,
//! [`crate::controller::SystemController`] globally) only steered the
//! *simulated* cluster inside the simnet harness, while the fast threaded
//! data plane ran uncontrolled. This module closes the loop on the live
//! service:
//!
//! * [`actuator::ClusterActuator`] — the unified actuation interface of
//!   both control levels: per-node **recovery** (restart + state transfer)
//!   and system-level **JOIN/EVICT** reconfiguration. Implemented by the
//!   simulated [`tolerance_consensus::MinBftCluster`] (direct method calls,
//!   deterministic, oracle-checked by simnet) and by the live
//!   [`tolerance_consensus::ThreadedCluster`] (control messages on the
//!   transport, wall-clock).
//! * [`runtime::ControlPlane`] — the transport-agnostic control runtime:
//!   per-replica belief tracking (one Eq. 4 filter,
//!   [`crate::node_model::NodeModel::belief_update_events`], over whole IDS
//!   event streams; a single alert sample is a one-event stream), the
//!   k-parallel-recovery constraint of Proposition 1, and the Algorithm-2
//!   replication decision, all actuated through whichever
//!   [`actuator::ClusterActuator`] is plugged in. The simnet executor drives
//!   the *same* `tick`, and the same filter, as the live threaded scenario.
//! * [`scenario::run_controlled_service`] — a threaded MinBFT service under
//!   a scripted intrusion burst with the control plane closing the loop
//!   live, plus the simnet twin ([`scenario::sim_intrusion_burst_config`])
//!   that passes the full oracle suite.
//! * `fleet::FleetControlPlane` — the sharded-fleet runtime: per-node
//!   strategies (TOLERANCE controllers or baselines) competing for one
//!   **global** recovery budget `k` (priority by deciding belief across
//!   shards), and one system controller per fleet evicting crashed
//!   replicas wherever they live and allocating JOIN spares to the neediest
//!   shard. Its tick is the one closed loop: the live and simnet planes and
//!   the Table-7 emulation's testbed are all its plants.
//! * [`autotune::AutotuneController`] — the *third* feedback loop, on the
//!   data plane itself: AIMD on leader batching and client concurrency
//!   (re-clamped online through the batch-fragmentation floor), retry
//!   budgets against retransmit storms, and mailbox-depth backpressure
//!   deciding admission. Deterministic per-window ticks in simnet, a real
//!   [`autotune::AutotuneLoop`] thread on the live planes.

pub(crate) mod actuator;
pub mod autotune;
pub(crate) mod fleet;
pub mod runtime;
pub mod scenario;

pub use actuator::ClusterActuator;
pub use autotune::{
    Admission, AutotuneConfig, AutotuneController, AutotuneLoop, AutotuneObservation,
};
pub use runtime::{ControlPlane, ControlPlaneConfig, NodeReport};
pub use scenario::{
    run_controlled_service, sim_intrusion_burst_config, ControlledServiceConfig,
    ControlledServiceReport, IntrusionEvent, IntrusionMode,
};
