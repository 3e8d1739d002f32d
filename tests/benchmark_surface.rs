//! Compile-only: every library path `benchmark/src/**/*.rs` imports, named
//! through the facade. `benchmark/` is a package outside the workspace, so
//! without this file a visibility change that breaks it passes tier-1 and
//! fails only in the separate `benchmark-build` CI job. When the benchmark
//! gains a `use tolerance_*::…` line, add the path here.

pub use tolerance::consensus::crypto::{Digest, KeyDirectory, KeyPair};
pub use tolerance::consensus::metrics::LatencyHistogram;
pub use tolerance::consensus::minbft::{batch_digest, Message, Operation, Request, CLIENT_ID_BASE};
pub use tolerance::consensus::net::Delivery;
pub use tolerance::consensus::threaded::snapshots_consistent;
pub use tolerance::consensus::transport::WallClock;
pub use tolerance::consensus::usig::{Usig, UsigVerifier};
pub use tolerance::consensus::wire::{decode_frame_body, encode_frame};
pub use tolerance::consensus::workload::{Arrival, OpStream, WorkloadConfig};
pub use tolerance::consensus::{
    ClientDriver, ClientReport, MembershipView, MinBftCluster, MinBftConfig, NetworkConfig, NodeId,
    ReplicaSnapshot, SocketHandle, SocketReplicaNode, SocketStats, SocketTransport,
    ThreadedCluster, ThreadedServiceConfig, ThreadedTransport, Transport,
};
pub use tolerance::core::algorithms::{Alg1, Alg1Config, OptimizerKind};
pub use tolerance::core::controlplane::{
    run_controlled_service, ControlPlane, ControlPlaneConfig, ControlledServiceConfig,
    ControlledServiceReport, IntrusionEvent, IntrusionMode, NodeReport,
};
pub use tolerance::core::node_model::{NodeAction, NodeModel, NodeParameters, NodeState};
pub use tolerance::core::observation::ObservationModel;
pub use tolerance::core::recovery::{RecoveryConfig, RecoveryProblem};
pub use tolerance::core::replication::{ReplicationConfig, ReplicationProblem};
pub use tolerance::core::runtime::Runner;
pub use tolerance::core::simnet::{
    fleet_scale_config, load_swing_config, run_sharded_schedule, sharded_fleet_controlled_config,
    ShardedFaultSchedule, ShardedScheduleConfig,
};
pub use tolerance::emulation::eval::EvaluationGrid;
pub use tolerance::pomdp::solvers::{IncrementalPruning, IncrementalPruningConfig};
pub use tolerance::pomdp::ValueFunction;

#[test]
fn every_path_the_benchmark_imports_resolves() {}
