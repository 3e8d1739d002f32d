//! The sharded service plane: many simulated MinBFT groups behind a key
//! router.
//!
//! The paper's architecture scales horizontally: the service is partitioned
//! across independent replicated groups, each running its own consensus
//! instance with per-node recovery controllers, under one fleet-level
//! system controller — so an intrusion in one shard cannot stall the rest
//! of the fleet. [`ShardedSimService`] is that data plane: S independent
//! [`MinBftCluster`]s (each over its own deterministic
//! `SimNetwork`, seeded from a split stream of one
//! fleet seed) stepped in lockstep, used by the multi-shard fault-injection
//! harness.
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

use crate::minbft::{MinBftCluster, MinBftConfig, Operation, Request};
use crate::{NodeId, SimTime};

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

/// General-purpose routed clients per shard of a [`ShardedSimService`].
const CLIENTS_PER_SHARD: usize = 4;

/// Configuration of a [`ShardedSimService`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardedSimConfig {
    /// Number of independent MinBFT groups.
    pub shards: usize,
    /// The per-shard cluster template; each shard runs it with its own
    /// split-stream seed ([`shard_seed`]).
    pub cluster: MinBftConfig,
}

impl Default for ShardedSimConfig {
    fn default() -> Self {
        ShardedSimConfig {
            shards: 2,
            cluster: MinBftConfig::default(),
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
            let pool: Vec<NodeId> = (0..CLIENTS_PER_SHARD)
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
    fn free_client(&self, shard: usize) -> Option<NodeId> {
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
}
