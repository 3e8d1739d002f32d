//! The sharded service plane: many MinBFT groups behind a key router.
//!
//! The paper's architecture scales horizontally: the service is partitioned
//! across independent replicated groups, each running its own consensus
//! instance with per-node recovery controllers, under one fleet-level
//! system controller — so an intrusion in one shard cannot stall the rest
//! of the fleet. This module adds that data plane on top of the existing
//! single-group code, for **both** transports:
//!
//! * [`ShardedSimService`] — S independent [`MinBftCluster`]s (each over its
//!   own deterministic [`SimNetwork`](crate::net::SimNetwork), seeded from a
//!   split stream of one fleet seed) stepped in lockstep, used by the
//!   multi-shard fault-injection harness.
//! * [`run_sharded_service`] / [`ShardRouter`] — S independent
//!   [`ThreadedCluster`]s (one OS-thread group per shard), with per-shard
//!   closed-loop drivers confined to shard-owned keys and a synchronous
//!   routing client for targeted operations. Shards share nothing, which is
//!   what makes throughput scale near-linearly with S on multicore.
//!
//! **Routing rule.** [`KeyPartitioner`] hash-range-partitions the `u32` key
//! space: shard `i` owns the contiguous range of 64-bit hash points
//! `[⌈i·2⁶⁴/S⌉, ⌈(i+1)·2⁶⁴/S⌉)`. Every key is owned by exactly one shard,
//! ranges differ in size by at most one hash point (balance), and the
//! mapping depends only on the shard *count* — JOIN/EVICT reconfiguration
//! inside a shard never remaps keys.
//!
//! **MultiPut protocol.** Cross-shard multi-key writes are client-driven
//! two-round transactions built from ordinary replicated requests (no new
//! trust assumptions): round one replicates an [`Operation::TxReserve`] on
//! each owning shard (staged writes are durable but invisible to `Get`);
//! only after *every* reserve is quorum-acknowledged does the client start
//! round two, replicating an [`Operation::TxCommit`] per key. A client
//! crash before the commit round leaves nothing observable (staged entries
//! never surface); a crash mid-commit-round is repaired by re-driving the
//! idempotent commits (roll-forward), which any client may do; a shard
//! leader crash mid-protocol is ridden out by the shard's own view change
//! plus client retransmission.

use crate::minbft::{Message, MinBftCluster, MinBftConfig, Operation, Request};
use crate::threaded::{
    ClientDriver, ThreadedCluster, ThreadedServiceConfig, ThreadedServiceReport,
};
use crate::transport::{Transport, TransportHandle};
use crate::workload::OpStream;
use crate::{NodeId, SimTime};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Derives the per-shard seed of a fleet seed: a splitmix64 scramble of
/// `(seed, shard)`, so every shard's RNG stream (network jitter, chaos
/// schedule, client mixes) is independent while the whole fleet stays a
/// pure function of one seed.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((shard as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn scramble_key(key: u32) -> u64 {
    let mut z = (u64::from(key)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The hash-range partitioner of the sharded key space (see the module
/// docs for the routing rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KeyPartitioner {
    shards: usize,
}

impl KeyPartitioner {
    /// A partitioner over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a fleet needs at least one shard");
        KeyPartitioner { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key` (always in `0..shards`).
    pub fn owner(&self, key: u32) -> usize {
        ((u128::from(scramble_key(key)) * self.shards as u128) >> 64) as usize
    }

    /// The number of 64-bit hash points shard `shard` owns (`u128` because
    /// a single shard owns the whole 2⁶⁴-point space). Ranges are
    /// contiguous and differ in size by at most one point, which bounds the
    /// max/min owned-range ratio (the balance property).
    pub fn owned_range(&self, shard: usize) -> u128 {
        let s = self.shards as u128;
        let span = 1u128 << 64;
        let lo = (shard as u128 * span).div_ceil(s);
        let hi = ((shard as u128 + 1) * span).div_ceil(s);
        hi - lo
    }

    /// A partitioner after a shard-count-preserving reconfiguration of the
    /// fleet (replicas joined/evicted/recovered inside shards): routing
    /// depends only on the shard count, so the assignment is identical —
    /// the stability property the proptest suite pins.
    pub fn reconfigured(&self) -> Self {
        KeyPartitioner::new(self.shards)
    }

    /// The keys in `[0, key_space)` owned by `shard`, extending the scan
    /// beyond `key_space` until at least one key is found (a tiny key space
    /// can leave a hash range empty).
    pub fn owned_keys(&self, shard: usize, key_space: u32) -> Vec<u32> {
        let mut owned: Vec<u32> = (0..key_space).filter(|&k| self.owner(k) == shard).collect();
        let mut probe = key_space;
        while owned.is_empty() {
            if self.owner(probe) == shard {
                owned.push(probe);
            }
            probe = probe.wrapping_add(1);
        }
        owned
    }
}

/// Configuration of a [`ShardedSimService`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardedSimConfig {
    /// Number of independent MinBFT groups.
    pub shards: usize,
    /// The per-shard cluster template; each shard runs it with its own
    /// split-stream seed ([`shard_seed`]).
    pub cluster: MinBftConfig,
    /// General-purpose routed clients per shard.
    pub clients_per_shard: usize,
}

impl Default for ShardedSimConfig {
    fn default() -> Self {
        ShardedSimConfig {
            shards: 2,
            cluster: MinBftConfig::default(),
            clients_per_shard: 4,
        }
    }
}

/// S independent simulated MinBFT groups behind one key router, stepped in
/// lockstep (shard index order, so the fleet replays byte-identically).
pub struct ShardedSimService {
    partitioner: KeyPartitioner,
    shards: Vec<MinBftCluster>,
    /// The general routed client pool, per shard.
    clients: Vec<Vec<NodeId>>,
}

impl ShardedSimService {
    /// Builds the fleet: one [`MinBftCluster`] per shard, each seeded from
    /// its split stream of `config.cluster.seed`.
    pub fn new(config: &ShardedSimConfig) -> Self {
        let partitioner = KeyPartitioner::new(config.shards);
        let mut shards = Vec::with_capacity(config.shards);
        let mut clients = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let mut cluster = MinBftCluster::new(MinBftConfig {
                seed: shard_seed(config.cluster.seed, shard),
                ..config.cluster.clone()
            });
            let pool: Vec<NodeId> = (0..config.clients_per_shard.max(1))
                .map(|_| cluster.add_client())
                .collect();
            shards.push(cluster);
            clients.push(pool);
        }
        ShardedSimService {
            partitioner,
            shards,
            clients,
        }
    }

    /// The fleet's key partitioner.
    pub fn partitioner(&self) -> &KeyPartitioner {
        &self.partitioner
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`.
    pub fn owner(&self, key: u32) -> usize {
        self.partitioner.owner(key)
    }

    /// Read-only access to one shard's cluster.
    pub fn shard(&self, shard: usize) -> &MinBftCluster {
        &self.shards[shard]
    }

    /// Mutable access to one shard's cluster (fault injection, actuation).
    pub fn shard_mut(&mut self, shard: usize) -> &mut MinBftCluster {
        &mut self.shards[shard]
    }

    /// Mutable access to every shard at once (the multi-shard harness
    /// builds one actuator per shard from disjoint borrows of this slice).
    pub fn shards_mut(&mut self) -> &mut [MinBftCluster] {
        &mut self.shards
    }

    /// The general routed client pool of `shard`.
    pub fn pool_clients(&self, shard: usize) -> &[NodeId] {
        &self.clients[shard]
    }

    /// Registers a dedicated client on `shard` (e.g. for a transaction
    /// driver that must track its own completions).
    pub fn add_client(&mut self, shard: usize) -> NodeId {
        self.shards[shard].add_client()
    }

    /// A free client of the general pool of `shard`, if any.
    pub fn free_client(&self, shard: usize) -> Option<NodeId> {
        self.clients[shard]
            .iter()
            .copied()
            .find(|&c| !self.shards[shard].has_outstanding_request(c))
    }

    /// Routes a keyed operation to the shard owning its key and submits it
    /// from a free pool client. Returns `(shard, client, request)`, or
    /// `None` when every pool client of the owning shard is busy (the
    /// caller retries on a later step).
    ///
    /// # Panics
    ///
    /// Panics for unkeyed (register) operations — the sharded plane routes
    /// by key.
    pub fn submit(&mut self, operation: Operation) -> Option<(usize, NodeId, Request)> {
        let key = operation
            .key()
            .expect("sharded submissions must carry a key");
        let shard = self.partitioner.owner(key);
        let client = self.free_client(shard)?;
        let request = self.shards[shard].submit(client, operation);
        Some((shard, client, request))
    }

    /// Advances every shard's event loop to simulated time `deadline`
    /// (lockstep, shard index order).
    pub fn run_until(&mut self, deadline: SimTime) {
        for cluster in &mut self.shards {
            cluster.run_until(deadline);
        }
    }

    /// Runs every shard until quiet or `max_time`.
    pub fn run_until_quiet(&mut self, max_time: SimTime) {
        for cluster in &mut self.shards {
            cluster.run_until_quiet(max_time);
        }
    }

    /// Whether every shard's healthy logs are internally prefix-consistent.
    pub fn logs_are_consistent(&self) -> bool {
        self.shards.iter().all(MinBftCluster::logs_are_consistent)
    }

    /// Ground-truth read of `key`: the value held at the most up-to-date
    /// live replica of the owning shard (`None` when the key is absent).
    pub fn read_key(&self, key: u32) -> Option<u64> {
        let shard = &self.shards[self.partitioner.owner(key)];
        let best = shard
            .membership()
            .iter()
            .copied()
            .filter(|&id| !shard.is_crashed(id) && !shard.needs_state(id))
            .max_by_key(|&id| shard.executed_len(id).unwrap_or(0))?;
        shard.replica_kv(best, key)
    }

    /// Whether any live replica of the owning shard still holds a staged
    /// (reserved, uncommitted) write for `(tx, key)`.
    pub fn key_staged(&self, tx: u64, key: u32) -> bool {
        let shard = &self.shards[self.partitioner.owner(key)];
        shard
            .membership()
            .iter()
            .any(|&id| shard.replica_staged(id, tx, key).is_some())
    }

    /// Synchronous MultiPut for tests: reserve every pair on its owning
    /// shard, wait for all reserves (quiet phases), then commit every pair
    /// and wait again. Returns `false` when a phase failed to complete
    /// within `phase_window` simulated seconds per round.
    pub fn multi_put_sync(&mut self, tx: u64, pairs: &[(u32, u64)], phase_window: f64) -> bool {
        let reserve: Vec<Operation> = pairs
            .iter()
            .map(|&(key, value)| Operation::TxReserve { tx, key, value })
            .collect();
        if !self.complete_round(&reserve, phase_window) {
            return false;
        }
        let commit: Vec<Operation> = pairs
            .iter()
            .map(|&(key, _)| Operation::TxCommit { tx, key })
            .collect();
        self.complete_round(&commit, phase_window)
    }

    /// Submits one round of keyed operations (each on its owning shard) and
    /// drives the fleet until every submission completed or the window
    /// elapses.
    fn complete_round(&mut self, operations: &[Operation], window: f64) -> bool {
        let mut pending: Vec<Operation> = operations.to_vec();
        let mut in_flight: Vec<(usize, NodeId)> = Vec::new();
        let start = self.shards.iter().map(|c| c.now()).fold(0.0, f64::max);
        let deadline = start + window;
        let mut now = start;
        while now < deadline {
            pending.retain(|&op| match self.submit(op) {
                Some((shard, client, _)) => {
                    in_flight.push((shard, client));
                    false
                }
                None => true,
            });
            now = (now + 0.5).min(deadline);
            self.run_until(now);
            in_flight.retain(|&(shard, client)| self.shards[shard].has_outstanding_request(client));
            if pending.is_empty() && in_flight.is_empty() {
                return true;
            }
        }
        pending.is_empty() && in_flight.is_empty()
    }
}

/// Configuration of a sharded threaded-service run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardedServiceConfig {
    /// Number of independent MinBFT groups (each one thread per replica
    /// plus a driver thread).
    pub shards: usize,
    /// The per-shard service template; each shard runs it with its own
    /// split-stream seed and its clients confined to shard-owned keys.
    pub service: ThreadedServiceConfig,
}

impl Default for ShardedServiceConfig {
    fn default() -> Self {
        ShardedServiceConfig {
            shards: 2,
            service: ThreadedServiceConfig::default(),
        }
    }
}

/// Outcome of a sharded threaded-service run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardedServiceReport {
    /// Number of shards.
    pub shards: usize,
    /// Replica threads per shard.
    pub replicas_per_shard: usize,
    /// Closed-loop clients per shard.
    pub clients_per_shard: usize,
    /// Fleet-wide completed requests.
    pub completed_requests: u64,
    /// Wall-clock duration of the run (the longest shard).
    pub duration: f64,
    /// Fleet-wide completed requests per second.
    pub requests_per_second: f64,
    /// Mean request latency across shards.
    pub mean_latency: f64,
    /// Whether every shard's replica logs were prefix-consistent at
    /// shutdown.
    pub consistent: bool,
    /// The per-shard reports.
    pub per_shard: Vec<ThreadedServiceReport>,
}

/// Runs one shard of the live service: a [`ThreadedCluster`] whose
/// closed-loop clients draw only shard-owned keys.
fn run_shard(
    config: &ThreadedServiceConfig,
    partitioner: KeyPartitioner,
    shard: usize,
) -> ThreadedServiceReport {
    let owned = partitioner.owned_keys(shard, config.key_space.max(1));
    let mut cluster = ThreadedCluster::new(config);
    let streams: Vec<OpStream> = (0..config.clients.max(1))
        .map(|index| {
            OpStream::over_keys(
                config.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                owned.clone(),
                config.write_ratio,
            )
        })
        .collect();
    let mut driver = ClientDriver::with_ops(&mut cluster, streams);
    let start = Instant::now();
    driver.run_for(config.duration);
    let duration = start.elapsed().as_secs_f64();
    let report = driver.report();
    let stats = cluster.stats();
    let snapshots = cluster.shutdown();
    ThreadedServiceReport {
        replicas: config.replicas,
        clients: config.clients,
        completed_requests: report.completed,
        duration,
        requests_per_second: report.completed as f64 / duration.max(1e-9),
        mean_latency: report.mean_latency(),
        consistent: crate::threaded::snapshots_consistent(&snapshots),
        max_retained_log: snapshots
            .iter()
            .map(|s| s.executed.len())
            .max()
            .unwrap_or(0),
        max_executed: snapshots.iter().map(|s| s.last_executed).max().unwrap_or(0),
        transport: stats,
    }
}

/// Runs the live sharded service: S independent threaded MinBFT groups
/// (one spawned thread per shard hosting that shard's replica threads and
/// client driver), each confined to the keys it owns. Shards share nothing,
/// so aggregate throughput scales with the number of shards as long as the
/// host has cores to run them.
///
/// # Panics
///
/// Panics if `shards` is zero, or propagates a shard thread panic.
pub fn run_sharded_service(config: &ShardedServiceConfig) -> ShardedServiceReport {
    assert!(config.shards >= 1, "a fleet needs at least one shard");
    let partitioner = KeyPartitioner::new(config.shards);
    let start = Instant::now();
    let per_shard: Vec<ThreadedServiceReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.shards)
            .map(|shard| {
                let service = ThreadedServiceConfig {
                    seed: shard_seed(config.service.seed, shard),
                    ..config.service
                };
                scope.spawn(move || run_shard(&service, partitioner, shard))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("shard thread panicked"))
            .collect()
    });
    let duration = start.elapsed().as_secs_f64();
    let completed: u64 = per_shard.iter().map(|r| r.completed_requests).sum();
    let latencies: f64 = per_shard
        .iter()
        .map(|r| r.mean_latency * r.completed_requests as f64)
        .sum();
    ShardedServiceReport {
        shards: config.shards,
        replicas_per_shard: config.service.replicas,
        clients_per_shard: config.service.clients,
        completed_requests: completed,
        duration,
        requests_per_second: completed as f64 / duration.max(1e-9),
        mean_latency: if completed == 0 {
            0.0
        } else {
            latencies / completed as f64
        },
        consistent: per_shard.iter().all(|r| r.consistent),
        per_shard,
    }
}

/// The client identity a [`ShardRouter`] registers on every shard's
/// transport (above the driver pool's [`crate::minbft`] client range on
/// each hub, so it never collides).
pub const ROUTER_CLIENT_ID: NodeId = 20_000;

struct RouterShard {
    transport: TransportHandle<Message>,
    membership: crate::threaded::MembershipView,
    mailbox: Receiver<crate::net::Delivery<Message>>,
    next_request_id: u64,
}

/// A synchronous routing client over a fleet of live [`ThreadedCluster`]s:
/// routes each keyed operation to the shard owning its key, completes it at
/// an f+1 reply quorum (retransmitting on timeout), and drives the
/// two-round MultiPut protocol described in the module docs.
pub struct ShardRouter {
    partitioner: KeyPartitioner,
    shards: Vec<RouterShard>,
    request_timeout: f64,
    next_tx: u64,
}

impl ShardRouter {
    /// Registers a router client on every shard of the fleet.
    pub fn new(clusters: &mut [ThreadedCluster], request_timeout: f64) -> Self {
        let partitioner = KeyPartitioner::new(clusters.len());
        let shards = clusters
            .iter_mut()
            .map(|cluster| RouterShard {
                transport: cluster.handle(),
                membership: cluster.membership_view(),
                mailbox: cluster.register_clients(&[ROUTER_CLIENT_ID]),
                next_request_id: 0,
            })
            .collect();
        ShardRouter {
            partitioner,
            shards,
            request_timeout,
            next_tx: 1,
        }
    }

    /// The router's partitioner.
    pub fn partitioner(&self) -> &KeyPartitioner {
        &self.partitioner
    }

    /// Executes one operation on `shard` synchronously: submits it from the
    /// router client, collects f+1 matching replies, retransmits stalled
    /// requests, and gives up after `deadline` wall-clock seconds.
    fn execute_on(&mut self, shard: usize, operation: Operation, deadline: f64) -> Option<u64> {
        let state = &mut self.shards[shard];
        let request = Request {
            client: ROUTER_CLIENT_ID,
            id: state.next_request_id,
            operation,
        };
        state.next_request_id += 1;
        let start = Instant::now();
        let mut last_sent = Instant::now();
        let members = state.membership.current();
        state
            .transport
            .broadcast(ROUTER_CLIENT_ID, &members, &Message::Request(request));
        let mut votes: HashMap<u64, HashSet<NodeId>> = HashMap::new();
        while start.elapsed().as_secs_f64() < deadline {
            match state.mailbox.recv_timeout(Duration::from_millis(2)) {
                Ok(delivery) => {
                    if let Message::Reply {
                        request_id, value, ..
                    } = delivery.message
                    {
                        if request_id != request.id {
                            continue;
                        }
                        let f = state.membership.fault_threshold();
                        let voters = votes.entry(value).or_default();
                        voters.insert(delivery.from);
                        if voters.len() > f {
                            return Some(value);
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if last_sent.elapsed().as_secs_f64() > self.request_timeout {
                        last_sent = Instant::now();
                        let members = state.membership.current();
                        state.transport.broadcast(
                            ROUTER_CLIENT_ID,
                            &members,
                            &Message::Request(request),
                        );
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
        None
    }

    /// The overall per-operation deadline: generous enough to ride out a
    /// view change in the owning shard.
    fn operation_deadline(&self) -> f64 {
        (self.request_timeout * 8.0).max(4.0)
    }

    /// Routed write: `Put` on the shard owning `key`.
    pub fn put(&mut self, key: u32, value: u64) -> Option<u64> {
        let shard = self.partitioner.owner(key);
        let deadline = self.operation_deadline();
        self.execute_on(shard, Operation::Put { key, value }, deadline)
    }

    /// Routed read: `Get` on the shard owning `key`.
    pub fn get(&mut self, key: u32) -> Option<u64> {
        let shard = self.partitioner.owner(key);
        let deadline = self.operation_deadline();
        self.execute_on(shard, Operation::Get { key }, deadline)
    }

    /// Round one of a MultiPut: reserves every pair on its owning shard and
    /// returns the transaction id once **all** reserves are
    /// quorum-acknowledged (the commit point). `None` means a reserve could
    /// not complete; the staged writes of the completed reserves stay
    /// invisible and are aborted best-effort.
    pub fn begin_multi_put(&mut self, pairs: &[(u32, u64)]) -> Option<u64> {
        let tx = self.next_tx;
        self.next_tx += 1;
        let deadline = self.operation_deadline();
        let mut reserved: Vec<u32> = Vec::with_capacity(pairs.len());
        for &(key, value) in pairs {
            let shard = self.partitioner.owner(key);
            if self
                .execute_on(shard, Operation::TxReserve { tx, key, value }, deadline)
                .is_none()
            {
                reserved.push(key);
                // Abort the failed key too: its reserve may have executed
                // without the router observing a quorum (lost replies),
                // and a staged write with no abort would sit in the
                // replicated state forever — transaction ids are never
                // reused. Aborting a never-staged entry is a no-op. (Best
                // effort: a reserve the shard sequences *after* this abort
                // can still leave a staged entry; it stays invisible to
                // `Get`, so observable state is unaffected.)
                for &key in &reserved {
                    let shard = self.partitioner.owner(key);
                    let _ = self.execute_on(shard, Operation::TxAbort { tx, key }, deadline);
                }
                return None;
            }
            reserved.push(key);
        }
        Some(tx)
    }

    /// Round two of a MultiPut: commits every key's staged write. Safe to
    /// re-drive after a partial round (commits are idempotent).
    pub fn commit_multi_put(&mut self, tx: u64, pairs: &[(u32, u64)]) -> bool {
        let deadline = self.operation_deadline();
        pairs.iter().all(|&(key, _)| {
            let shard = self.partitioner.owner(key);
            self.execute_on(shard, Operation::TxCommit { tx, key }, deadline)
                .is_some()
        })
    }

    /// The full two-round MultiPut: reserve everywhere, then commit
    /// everywhere. Returns the transaction id on success.
    pub fn multi_put(&mut self, pairs: &[(u32, u64)]) -> Option<u64> {
        let tx = self.begin_multi_put(pairs)?;
        self.commit_multi_put(tx, pairs).then_some(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkConfig;

    fn quiet_network() -> NetworkConfig {
        NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0,
        }
    }

    fn sim_fleet(shards: usize) -> ShardedSimService {
        ShardedSimService::new(&ShardedSimConfig {
            shards,
            cluster: MinBftConfig {
                initial_replicas: 4,
                network: quiet_network(),
                ..MinBftConfig::default()
            },
            clients_per_shard: 4,
        })
    }

    #[test]
    fn partitioner_covers_every_key_exactly_once_and_balances() {
        for shards in [1usize, 2, 3, 4, 8] {
            let partitioner = KeyPartitioner::new(shards);
            for key in 0..512u32 {
                let owner = partitioner.owner(key);
                assert!(owner < shards, "owner {owner} out of range");
            }
            let total: u128 = (0..shards).map(|s| partitioner.owned_range(s)).sum();
            assert_eq!(total, 1u128 << 64, "ranges must cover the hash space");
            let min = (0..shards)
                .map(|s| partitioner.owned_range(s))
                .min()
                .unwrap();
            let max = (0..shards)
                .map(|s| partitioner.owned_range(s))
                .max()
                .unwrap();
            assert!(max - min <= 1, "ranges must differ by at most one point");
            assert_eq!(partitioner.reconfigured(), partitioner);
        }
        // owned_keys finds keys even for tiny key spaces.
        let partitioner = KeyPartitioner::new(8);
        for shard in 0..8 {
            assert!(!partitioner.owned_keys(shard, 1).is_empty());
        }
    }

    #[test]
    fn routed_puts_and_gets_land_on_the_owning_shard_only() {
        let mut fleet = sim_fleet(2);
        let keys = [3u32, 7, 11, 19, 23, 42];
        for (index, &key) in keys.iter().enumerate() {
            let (shard, _, _) = fleet
                .submit(Operation::Put {
                    key,
                    value: 100 + index as u64,
                })
                .expect("a free client exists");
            assert_eq!(shard, fleet.owner(key));
            fleet.run_until_quiet(10.0 * (index as f64 + 1.0));
        }
        for (index, &key) in keys.iter().enumerate() {
            assert_eq!(fleet.read_key(key), Some(100 + index as u64), "key {key}");
            // The non-owning shard never saw the key.
            let other = 1 - fleet.owner(key);
            for &replica in fleet.shard(other).membership() {
                assert_eq!(fleet.shard(other).replica_kv(replica, key), None);
            }
        }
        assert!(fleet.logs_are_consistent());
    }

    #[test]
    fn multi_put_commits_across_shards_and_reserves_stay_invisible() {
        let mut fleet = sim_fleet(2);
        // Find two keys owned by different shards.
        let key_a = (0..).find(|&k| fleet.owner(k) == 0).unwrap();
        let key_b = (0..).find(|&k| fleet.owner(k) == 1).unwrap();
        let pairs = [(key_a, 11u64), (key_b, 22u64)];

        // Reserve round only: nothing observable.
        for &(key, value) in &pairs {
            fleet
                .submit(Operation::TxReserve { tx: 9, key, value })
                .expect("free client");
        }
        fleet.run_until_quiet(10.0);
        assert_eq!(
            fleet.read_key(key_a),
            None,
            "staged write must be invisible"
        );
        assert_eq!(fleet.read_key(key_b), None);
        assert!(fleet.key_staged(9, key_a) && fleet.key_staged(9, key_b));

        // Commit round applies both atomically (each an ordinary request).
        for &(key, _) in &pairs {
            fleet
                .submit(Operation::TxCommit { tx: 9, key })
                .expect("free client");
        }
        fleet.run_until_quiet(20.0);
        assert_eq!(fleet.read_key(key_a), Some(11));
        assert_eq!(fleet.read_key(key_b), Some(22));
        assert!(!fleet.key_staged(9, key_a) && !fleet.key_staged(9, key_b));

        // The synchronous helper drives both rounds.
        assert!(fleet.multi_put_sync(10, &[(key_a, 33), (key_b, 44)], 30.0));
        assert_eq!(fleet.read_key(key_a), Some(33));
        assert_eq!(fleet.read_key(key_b), Some(44));
        assert!(fleet.logs_are_consistent());
    }

    #[test]
    fn aborted_transaction_leaves_no_trace() {
        let mut fleet = sim_fleet(2);
        let key = 5u32;
        fleet
            .submit(Operation::TxReserve {
                tx: 1,
                key,
                value: 77,
            })
            .expect("free client");
        fleet.run_until_quiet(10.0);
        assert!(fleet.key_staged(1, key));
        fleet
            .submit(Operation::TxAbort { tx: 1, key })
            .expect("free client");
        fleet.run_until_quiet(20.0);
        assert!(!fleet.key_staged(1, key));
        assert_eq!(fleet.read_key(key), None);
        // A late commit of the aborted transaction is a no-op.
        fleet
            .submit(Operation::TxCommit { tx: 1, key })
            .expect("free client");
        fleet.run_until_quiet(30.0);
        assert_eq!(fleet.read_key(key), None);
    }

    #[test]
    fn sharded_threaded_service_serves_on_every_shard() {
        let report = run_sharded_service(&ShardedServiceConfig {
            shards: 2,
            service: ThreadedServiceConfig {
                replicas: 4,
                clients: 4,
                duration: 0.3,
                ..ThreadedServiceConfig::default()
            },
        });
        assert_eq!(report.shards, 2);
        assert!(report.consistent, "a shard's logs diverged: {report:?}");
        assert!(
            report.per_shard.iter().all(|r| r.completed_requests > 0),
            "every shard must complete requests: {report:?}"
        );
        assert_eq!(
            report.completed_requests,
            report
                .per_shard
                .iter()
                .map(|r| r.completed_requests)
                .sum::<u64>()
        );
    }

    #[test]
    fn shard_router_routes_and_multi_puts_across_live_shards() {
        let config = ThreadedServiceConfig {
            replicas: 4,
            clients: 2,
            duration: 0.2,
            ..ThreadedServiceConfig::default()
        };
        let mut clusters: Vec<ThreadedCluster> = (0..2)
            .map(|shard| {
                ThreadedCluster::new(&ThreadedServiceConfig {
                    seed: shard_seed(config.seed, shard),
                    ..config
                })
            })
            .collect();
        let mut router = ShardRouter::new(&mut clusters, 0.5);
        let key_a = (0..).find(|&k| router.partitioner().owner(k) == 0).unwrap();
        let key_b = (0..).find(|&k| router.partitioner().owner(k) == 1).unwrap();

        assert_eq!(router.put(key_a, 5), Some(5));
        assert_eq!(router.get(key_a), Some(5));
        assert_eq!(router.get(key_b), Some(0), "unwritten key reads 0");

        let tx = router
            .multi_put(&[(key_a, 40), (key_b, 41)])
            .expect("cross-shard multi-put completes");
        assert!(tx > 0);
        assert_eq!(router.get(key_a), Some(40));
        assert_eq!(router.get(key_b), Some(41));

        for cluster in clusters {
            let snapshots = cluster.shutdown();
            assert!(crate::threaded::snapshots_consistent(&snapshots));
        }
    }
}
