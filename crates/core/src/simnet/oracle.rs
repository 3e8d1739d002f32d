//! Invariant oracles: the correctness conditions checked after every step.
//!
//! The oracles encode the guarantees of Proposition 1 and of the node-level
//! controllers:
//!
//! * **Agreement** — no two live replicas hold different operation digests
//!   at the same log position: every pair of executed logs must agree on
//!   their common prefix. The check runs over the *current* logs (not the
//!   historical commit trace) because a legitimate recovery resets a
//!   replica's log; crashed replicas are skipped until they are recovered
//!   or evicted.
//! * **Validity** — every digest in any live log corresponds to a request
//!   some client actually submitted.
//! * **Recovery bound** — a compromised replica is recovered at the latest
//!   `Δ_R` steps (plus the `k`-parallel-recovery queueing slack) after the
//!   compromise: the BTR constraint of Problem 1.
//! * **Network accounting** — the network neither loses nor invents
//!   messages beyond its declared drop semantics.
//! * **Liveness** — once all faults are healed and at most `f` replicas
//!   are faulty, a probe request completes and all replicas converge
//!   (checked by the executor's settle phase).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use tolerance_consensus::crypto::Digest;
use tolerance_consensus::{MinBftCluster, NodeId};

/// The invariant that a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InvariantKind {
    /// Two live replicas hold different digests at one log position.
    Agreement,
    /// A replica holds a digest no client submitted.
    Validity,
    /// A compromise outlived the BTR recovery bound.
    RecoveryBound,
    /// Network counters stopped adding up.
    NetworkAccounting,
    /// The settle-phase probe did not complete or replicas diverged.
    Liveness,
    /// A committed request surfaced on a shard that does not own its key,
    /// or was executed more than once fleet-wide (the multi-shard routing
    /// oracle).
    Routing,
    /// A cross-shard MultiPut was observable half-applied after the settle
    /// phase (some keys held the transaction's values while others did
    /// not, despite roll-forward of interrupted commit rounds).
    Atomicity,
    /// Under a GST schedule, a request submitted before GST was still
    /// uncommitted more than `post_gst_liveness_steps` steps after the
    /// network stabilized (partial-synchrony liveness).
    LivenessAfterGst,
}

impl std::fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            InvariantKind::Agreement => "agreement",
            InvariantKind::Validity => "validity",
            InvariantKind::RecoveryBound => "recovery-bound",
            InvariantKind::NetworkAccounting => "network-accounting",
            InvariantKind::Liveness => "liveness",
            InvariantKind::Routing => "routing",
            InvariantKind::Atomicity => "atomicity",
            InvariantKind::LivenessAfterGst => "liveness-after-gst",
        };
        write!(f, "{name}")
    }
}

/// A detected invariant violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The broken invariant.
    pub kind: InvariantKind,
    /// The step after which the violation was detected (`u32::MAX` for the
    /// settle phase).
    pub step: u32,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.step == u32::MAX {
            write!(f, "{} in the settle phase: {}", self.kind, self.detail)
        } else {
            write!(f, "{} at step {}: {}", self.kind, self.step, self.detail)
        }
    }
}

/// The step-by-step invariant checker.
#[derive(Debug, Default)]
pub(crate) struct InvariantChecker {
    /// Digests of every request submitted through the harness.
    submitted: HashSet<Digest>,
    /// Absolute log position up to which each replica has already been
    /// validity-checked (reset when a log shrinks, i.e. the replica was
    /// recovered).
    validity_scanned: BTreeMap<NodeId, u64>,
    /// Commit-trace records already folded into `sequence_digests`.
    trace_scanned: usize,
    /// First digest observed per committed sequence number (the
    /// sequence-level agreement ground truth).
    sequence_digests: BTreeMap<u64, (NodeId, Digest)>,
}

impl InvariantChecker {
    /// Registers a submitted request digest (the ground truth of validity).
    pub(crate) fn record_submission(&mut self, digest: Digest) {
        self.submitted.insert(digest);
    }

    /// Checks agreement and validity over the current executed logs of all
    /// live (non-crashed) replicas; `step` tags any violation.
    pub(crate) fn check_logs(&mut self, cluster: &MinBftCluster, step: u32) -> Option<Violation> {
        // Logs are retained suffixes since each replica's stable checkpoint:
        // `(replica, absolute offset of the first entry, suffix)`.
        let logs: Vec<(NodeId, u64, &[Digest])> = cluster
            .membership()
            .iter()
            .copied()
            .filter(|&id| !cluster.is_crashed(id))
            .filter_map(|id| {
                let log = cluster.executed_log(id)?;
                let start = cluster.executed_log_start(id)?;
                Some((id, start, log))
            })
            .collect();
        // Agreement, positional: pairwise equality on the log positions both
        // replicas retain (compaction truncates prefixes, so the overlap
        // window is compared instead of the raw prefixes).
        for (i, &(id_a, start_a, log_a)) in logs.iter().enumerate() {
            for &(id_b, start_b, log_b) in logs.iter().skip(i + 1) {
                if let Some(position) = tolerance_consensus::minbft::first_log_divergence(
                    start_a, log_a, start_b, log_b,
                ) {
                    let digest_a = log_a[(position - start_a) as usize];
                    let digest_b = log_b[(position - start_b) as usize];
                    return Some(Violation {
                        kind: InvariantKind::Agreement,
                        step,
                        detail: format!(
                            "replicas {id_a} and {id_b} committed different digests at log \
                             position {}: {digest_a:?} vs {digest_b:?}",
                            position + 1,
                        ),
                    });
                }
            }
        }
        // Agreement, per sequence number: empty-batch gap fills mean log
        // *positions* no longer identify sequence numbers, so a renumbering
        // split (the same requests re-committed under different sequences,
        // leaving positionally identical logs) is only visible in the
        // commit trace.
        for record in
            &cluster.commit_trace()[self.trace_scanned.min(cluster.commit_trace().len())..]
        {
            match self.sequence_digests.get(&record.sequence) {
                Some(&(other, digest)) if digest != record.digest => {
                    return Some(Violation {
                        kind: InvariantKind::Agreement,
                        step,
                        detail: format!(
                            "replicas {other} and {} committed different digests at sequence {}: \
                             {digest:?} vs {:?}",
                            record.replica, record.sequence, record.digest
                        ),
                    });
                }
                Some(_) => {}
                None => {
                    self.sequence_digests
                        .insert(record.sequence, (record.replica, record.digest));
                }
            }
        }
        self.trace_scanned = cluster.commit_trace().len();
        // Validity: every (newly appended) digest was submitted. Gap-filling
        // view changes commit *empty* batches, so every logged digest must
        // trace back to a client request.
        let check_position = |position: u64, digest: Digest, id: NodeId| {
            (!self.submitted.contains(&digest)).then(|| Violation {
                kind: InvariantKind::Validity,
                step,
                detail: format!(
                    "replica {id} committed digest {digest:?} at log position {} that no \
                     client submitted",
                    position + 1
                ),
            })
        };
        for &(id, start, log) in &logs {
            let mut scanned = self.validity_scanned.get(&id).copied().unwrap_or(0);
            let absolute_len = start + log.len() as u64;
            if absolute_len < scanned {
                scanned = start; // the replica was recovered and its log reset
            }
            // Compaction (or a fresh state adoption) may have truncated
            // positions this oracle never scanned on this replica: validate
            // them from any replica that still retains them — the positional
            // agreement check above makes any holder's copy authoritative.
            // Positions no live replica retains were executed *and*
            // compacted by a stable f+1 checkpoint within a single step and
            // are no longer observable.
            for position in scanned..start {
                let held_elsewhere = logs.iter().find_map(|&(_, other_start, other_log)| {
                    (other_start <= position && position < other_start + other_log.len() as u64)
                        .then(|| other_log[(position - other_start) as usize])
                });
                if let Some(digest) = held_elsewhere {
                    if let Some(violation) = check_position(position, digest, id) {
                        return Some(violation);
                    }
                }
            }
            for position in scanned.max(start)..absolute_len {
                let digest = log[(position - start) as usize];
                if let Some(violation) = check_position(position, digest, id) {
                    return Some(violation);
                }
            }
            self.validity_scanned.insert(id, absolute_len);
        }
        None
    }

    /// Checks that the network's counters add up exactly: everything handed
    /// to the network is delivered, dropped or still in flight — a message
    /// silently lost (or double-counted) breaks the equation in either
    /// direction.
    pub(crate) fn check_network(&self, cluster: &MinBftCluster, step: u32) -> Option<Violation> {
        let stats = cluster.network_stats();
        let accounted = stats.delivered + stats.dropped + cluster.network_in_flight() as u64;
        if accounted != stats.sent {
            return Some(Violation {
                kind: InvariantKind::NetworkAccounting,
                step,
                detail: format!(
                    "delivered {} + dropped {} + in-flight {} != sent {}",
                    stats.delivered,
                    stats.dropped,
                    cluster.network_in_flight(),
                    stats.sent
                ),
            });
        }
        None
    }

    /// Removes the validity bookkeeping of an evicted replica.
    pub(crate) fn forget_replica(&mut self, replica: NodeId) {
        self.validity_scanned.remove(&replica);
    }

    /// The highest executed log length among live replicas (the number of
    /// operations the service as a whole has committed).
    pub(crate) fn committed_sequences(cluster: &MinBftCluster) -> u64 {
        cluster
            .membership()
            .iter()
            .filter_map(|&id| cluster.executed_len(id))
            .max()
            .unwrap_or(0)
    }
}

/// The cross-shard **routing oracle** of the multi-shard harness: every
/// committed request must be executed by exactly the shard owning its key,
/// and exactly once fleet-wide. The checker scans each shard's retained
/// executed logs incrementally (per-request digests, so batching does not
/// obscure individual requests) and flags:
///
/// * a digest surfacing on a shard other than the one it was routed to
///   (misrouting — the partitioner and the router disagreed, or a request
///   leaked across groups),
/// * the same digest surfacing on two different shards, or at two different
///   log positions of one shard (double execution fleet-wide).
#[derive(Debug, Default)]
pub(crate) struct RoutingChecker {
    /// Owning shard of every digest submitted through the router.
    owners: HashMap<Digest, usize>,
    /// Where each digest was first observed executing:
    /// `(shard, absolute log position)`.
    executed_at: HashMap<Digest, (usize, u64)>,
}

impl RoutingChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        RoutingChecker::default()
    }

    /// Registers a routed submission: `digest` was submitted to `shard`
    /// (which the router chose as the key's owner).
    pub(crate) fn record_submission(&mut self, digest: Digest, shard: usize) {
        self.owners.insert(digest, shard);
    }

    /// Scans shard `shard`'s current logs; `step` tags any violation. Call
    /// once per shard per step, in shard index order.
    ///
    /// Every replica's **whole retained log** is rescanned each call:
    /// tracking a scanned high-water mark would open a false-negative
    /// window when a log rolls back *and* regrows past the mark within one
    /// step (a re-execution at a reused position below the mark would
    /// never be revisited — exactly the double-execution class this oracle
    /// exists to catch). Retained logs are compaction-bounded, so the
    /// rescan stays cheap; re-observing a digest at its recorded
    /// `(shard, position)` is consistent and never flags.
    pub(crate) fn check_shard(
        &mut self,
        shard: usize,
        cluster: &MinBftCluster,
        step: u32,
    ) -> Option<Violation> {
        for &replica in cluster.membership() {
            if cluster.is_crashed(replica) {
                continue;
            }
            let (Some(log), Some(start)) = (
                cluster.executed_log(replica),
                cluster.executed_log_start(replica),
            ) else {
                continue;
            };
            for (offset, &digest) in log.iter().enumerate() {
                let position = start + offset as u64;
                if let Some(&owner) = self.owners.get(&digest) {
                    if owner != shard {
                        return Some(Violation {
                            kind: InvariantKind::Routing,
                            step,
                            detail: format!(
                                "shard {shard} replica {replica} executed digest {digest:?} \
                                 routed to shard {owner}"
                            ),
                        });
                    }
                }
                match self.executed_at.get(&digest) {
                    Some(&(other_shard, other_position))
                        if other_shard != shard || other_position != position =>
                    {
                        return Some(Violation {
                            kind: InvariantKind::Routing,
                            step,
                            detail: format!(
                                "digest {digest:?} executed twice fleet-wide: shard \
                                 {other_shard} position {other_position} and shard {shard} \
                                 position {position}"
                            ),
                        });
                    }
                    Some(_) => {}
                    None => {
                        self.executed_at.insert(digest, (shard, position));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tolerance_consensus::minbft::{MinBftCluster, MinBftConfig, Operation};
    use tolerance_consensus::NetworkConfig;

    fn cluster() -> MinBftCluster {
        MinBftCluster::new(MinBftConfig {
            initial_replicas: 4,
            network: NetworkConfig {
                latency: 0.002,
                jitter: 0.001,
                loss_rate: 0.0,
            },
            ..MinBftConfig::default()
        })
    }

    #[test]
    fn clean_runs_pass_agreement_and_validity() {
        let mut cluster = cluster();
        let mut checker = InvariantChecker::default();
        let client = cluster.add_client();
        for value in [1u64, 2, 3] {
            let request = cluster.submit(client, Operation::Write(value));
            checker.record_submission(request.digest());
            cluster.run_until_quiet(60.0);
            assert_eq!(checker.check_logs(&cluster, value as u32), None);
            assert_eq!(checker.check_network(&cluster, value as u32), None);
        }
        assert_eq!(InvariantChecker::committed_sequences(&cluster), 3);
    }

    #[test]
    fn injected_corruption_breaks_agreement() {
        let mut cluster = cluster();
        let mut checker = InvariantChecker::default();
        let client = cluster.add_client();
        let request = cluster.submit(client, Operation::Write(1));
        checker.record_submission(request.digest());
        cluster.run_until_quiet(10.0);
        assert_eq!(checker.check_logs(&cluster, 0), None);

        cluster.inject_double_commit(2);
        let request = cluster.submit(client, Operation::Write(2));
        checker.record_submission(request.digest());
        cluster.run_until_quiet(20.0);
        let violation = checker.check_logs(&cluster, 1).expect("must be caught");
        assert_eq!(violation.kind, InvariantKind::Agreement);
        assert!(
            violation.detail.contains("log position 2") || violation.detail.contains("sequence 2"),
            "unexpected detail: {}",
            violation.detail
        );
    }

    #[test]
    fn routing_oracle_catches_misrouting_and_fleet_wide_double_execution() {
        // Shard 0 executes a request the router recorded as owned by shard
        // 1: the misrouting arm fires.
        let mut shard0 = cluster();
        let mut checker = RoutingChecker::new();
        let client = shard0.add_client();
        let request = shard0.submit(client, Operation::Put { key: 9, value: 5 });
        checker.record_submission(request.digest(), 1);
        shard0.run_until_quiet(10.0);
        let violation = checker
            .check_shard(0, &shard0, 0)
            .expect("misrouting must be caught");
        assert_eq!(violation.kind, InvariantKind::Routing);
        assert!(violation.detail.contains("routed to shard 1"));

        // Two shards executing the *same* digest (identical client id,
        // request id and operation): the exactly-once arm fires. The
        // digest is deliberately left unowned so the misrouting arm (which
        // takes precedence) stays quiet.
        let mut checker = RoutingChecker::new();
        assert_eq!(checker.check_shard(0, &shard0, 1), None);
        let mut shard1 = cluster();
        let client1 = shard1.add_client();
        let duplicate = shard1.submit(client1, Operation::Put { key: 9, value: 5 });
        assert_eq!(duplicate.digest(), request.digest());
        shard1.run_until_quiet(10.0);
        let violation = checker
            .check_shard(1, &shard1, 2)
            .expect("double execution must be caught");
        assert_eq!(violation.kind, InvariantKind::Routing);
        assert!(violation.detail.contains("twice fleet-wide"));
        assert!(violation.to_string().contains("routing"));
    }

    /// The single-register `Write` path under faults. The fleet driver's
    /// clients send routed `Put`s, so this is the oracle-checked run that
    /// takes `Write`s (and the `value` register) through a lossy network,
    /// rebuilds of a different replica every third tick from donors that
    /// may lag, state transfer across checkpoints and a crash. Every tick
    /// passes the oracles, and the replicas that settle at the highest
    /// frontier hold the same register.
    #[test]
    fn writes_pass_the_oracles_through_rebuilds_on_consecutive_ticks() {
        let lossy = NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.2,
        };
        for seed in 0..24u32 {
            let mut cluster = MinBftCluster::new(MinBftConfig {
                initial_replicas: 6,
                checkpoint_period: 4,
                network: lossy,
                seed: u64::from(seed),
                ..MinBftConfig::default()
            });
            let mut checker = InvariantChecker::default();
            let client = cluster.add_client();
            for tick in 0..30u32 {
                if !cluster.has_outstanding_request(client) {
                    let request = cluster.submit(client, Operation::Write(u64::from(tick) + 1));
                    checker.record_submission(request.digest());
                }
                if tick % 3 == 2 && tick < 24 {
                    cluster.recover_replica((seed + tick / 3) % 6);
                }
                if tick == 13 {
                    cluster.crash_replica((seed + 3) % 6);
                }
                if tick == 20 {
                    cluster.set_network_config(NetworkConfig {
                        loss_rate: 0.0,
                        ..lossy
                    });
                }
                cluster.run_until(cluster.now() + 1.0);
                assert_eq!(checker.check_logs(&cluster, tick), None, "seed {seed}");
                assert_eq!(checker.check_network(&cluster, tick), None, "seed {seed}");
            }
            cluster.run_until_quiet(cluster.now() + 60.0);
            assert_eq!(checker.check_logs(&cluster, 30), None, "seed {seed}");
            let live: Vec<NodeId> = (cluster.membership().iter().copied())
                .filter(|&id| !cluster.is_crashed(id) && !cluster.needs_state(id))
                .collect();
            let frontier = (live.iter())
                .filter_map(|&id| cluster.executed_len(id))
                .max()
                .expect("a live replica");
            let values: HashSet<Option<u64>> = (live.iter().copied())
                .filter(|&id| cluster.executed_len(id) == Some(frontier))
                .map(|id| cluster.replica_value(id))
                .collect();
            assert_eq!(values.len(), 1, "seed {seed}: {values:?}");
            assert!(cluster.completed_requests(client) > 0, "seed {seed}");
        }
    }

    #[test]
    fn unsubmitted_digests_break_validity() {
        let mut cluster = cluster();
        let mut checker = InvariantChecker::default();
        let client = cluster.add_client();
        // Deliberately do NOT record the submission.
        cluster.submit(client, Operation::Write(7));
        cluster.run_until_quiet(10.0);
        let violation = checker.check_logs(&cluster, 0).expect("must be caught");
        assert_eq!(violation.kind, InvariantKind::Validity);
        assert!(violation.to_string().contains("validity"));
    }
}
