//! Reconfigurable MinBFT over a pluggable transport.
//!
//! MinBFT (Veronese et al.) is the consensus protocol of the TOLERANCE
//! architecture (Section IV and Appendix G of the paper). It assumes the
//! hybrid failure model: replicas may behave arbitrarily, but each hosts a
//! tamperproof USIG counter, which raises the fault tolerance to
//! `f = (N - 1)/2` (or `(N - 1 - k)/2` when `k` parallel recoveries are
//! allowed, Proposition 1). The normal-case message pattern is
//! REQUEST → PREPARE (leader, with UI) → COMMIT (all, with UI) → REPLY, and
//! the protocol additionally supports checkpoints, view changes, state
//! transfer for recovered replicas, and the JOIN/EVICT reconfiguration that
//! the paper's system controller uses to adjust the replication factor
//! (Fig. 17).
//!
//! Two data-plane features make the pipeline production-shaped:
//!
//! * **Leader-side batching** — a PREPARE carries a *batch* of client
//!   requests, so one USIG signature and one quorum round are amortized
//!   over up to [`MinBftConfig::batch_size`] requests.
//! * **Checkpoint-driven log compaction** — once `f + 1` replicas announce
//!   the same state digest at a checkpoint sequence, each replica truncates
//!   its executed log, prepared certificates, commit votes and checkpoint
//!   ballots below that *stable checkpoint*; lagging replicas re-acquire
//!   compacted history through state transfer instead of message replay.
//!
//! The replica state machine ([`Replica`] plus the `replica_*` step
//! functions) is transport-agnostic: the simulated [`MinBftCluster`] drives
//! it over `crate::net::SimNetwork`, and [`crate::threaded`] runs the very
//! same code with one OS thread per replica over
//! [`crate::transport::ThreadedTransport`]. Each replica also has a
//! per-message processing time (plus an optional per-signature cost), which
//! is what makes the simulated throughput saturate and decrease with the
//! number of replicas as in Fig. 10 of the paper.
//!
//! The module is split along the trust boundary. `message`, `config`,
//! `replica`, `timers` and `client` are the honest protocol core — everything
//! a live node or client links. `cluster` is the simulated driver and
//! `adversary` the attacker zoo it owns: no attacker behaviour lives inside
//! the honest step functions.

mod adversary;
mod client;
mod cluster;
mod config;
mod message;
mod replica;
#[cfg(test)]
mod tests;
mod timers;

pub use adversary::AttackerKind;
pub(crate) use client::{client_index, Client, TimerAction};
pub use cluster::{MinBftCluster, RetainedStats};
pub(crate) use config::ProtocolParams;
pub use config::{MinBftConfig, MinBftConfigError};
pub use message::{
    batch_digest, first_log_divergence, ByzantineMode, CommitRecord, ControlMessage, Message,
    Operation, Request, CLIENT_ID_BASE,
};
pub(crate) use replica::{replica_on_message, Replica, StepOutput};
pub(crate) use timers::{replica_deadline, replica_on_timer};
