//! Discrete-event network simulation.
//!
//! The paper's testbed connects replicas with Gbit/s links carrying 0.05%
//! packet loss (emulated with NETEM) and clients over 100 Mbit/s links with
//! 0.1% loss. This module provides the equivalent simulated substrate:
//! point-to-point messages with configurable latency, jitter and loss,
//! network partitions, and crashed nodes. Channels are authenticated by
//! construction — a message always carries the true sender identity, matching
//! assumption (b) of Proposition 1 (nodes cannot spoof each other on the
//! wire; what a *compromised* node may do is captured by the Byzantine
//! behaviour modes of the protocol layer, not by the network).

use crate::transport::Transport;
use crate::{NodeId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Configuration of the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NetworkConfig {
    /// Base one-way latency in (simulated) seconds.
    pub latency: f64,
    /// Maximum additional uniform jitter in seconds.
    pub jitter: f64,
    /// Probability that a message is lost.
    pub loss_rate: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        // Replica-to-replica defaults mirroring the paper's Gbit/s + 0.05% loss setup.
        NetworkConfig {
            latency: 0.002,
            jitter: 0.001,
            loss_rate: 0.0005,
        }
    }
}

/// Why a [`NetworkConfig`] was rejected by [`NetworkConfig::new`] /
/// [`NetworkConfig::validate`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum NetworkConfigError {
    /// A probability field lies outside `[0, 1]` (or is NaN).
    ProbabilityOutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A duration field is negative (or NaN).
    NegativeDuration {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for NetworkConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkConfigError::ProbabilityOutOfRange { field, value } => {
                write!(f, "network config `{field}` = {value} is not in [0, 1]")
            }
            NetworkConfigError::NegativeDuration { field, value } => {
                write!(f, "network config `{field}` = {value} must be non-negative")
            }
        }
    }
}

impl std::error::Error for NetworkConfigError {}

impl NetworkConfig {
    /// Creates a validated configuration: `loss_rate` must be a probability
    /// in `[0, 1]`, and `latency`/`jitter` must be non-negative and finite.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkConfigError`] describing the first offending field.
    pub fn new(latency: f64, jitter: f64, loss_rate: f64) -> Result<Self, NetworkConfigError> {
        let config = NetworkConfig {
            latency,
            jitter,
            loss_rate,
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks the admissibility of every field (see [`NetworkConfig::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkConfigError`] describing the first offending field.
    pub fn validate(&self) -> Result<(), NetworkConfigError> {
        for (field, value) in [("latency", self.latency), ("jitter", self.jitter)] {
            if !value.is_finite() || value < 0.0 {
                return Err(NetworkConfigError::NegativeDuration { field, value });
            }
        }
        if !self.loss_rate.is_finite() || !(0.0..=1.0).contains(&self.loss_rate) {
            return Err(NetworkConfigError::ProbabilityOutOfRange {
                field: "loss_rate",
                value: self.loss_rate,
            });
        }
        Ok(())
    }

    /// Clamps every field into its admissible range (probabilities to
    /// `[0, 1]`, durations to `≥ 0`, NaN to the field's safe default).
    /// Useful when configs are produced by sweeps or schedule generators
    /// that may overshoot.
    #[must_use]
    pub fn clamped(&self) -> Self {
        let duration = |v: f64| if v.is_finite() { v.max(0.0) } else { 0.0 };
        let probability = |v: f64| {
            if v.is_finite() {
                v.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        NetworkConfig {
            latency: duration(self.latency),
            jitter: duration(self.jitter),
            loss_rate: probability(self.loss_rate),
        }
    }

    /// A lossless, zero-latency network (useful in unit tests).
    pub fn ideal() -> Self {
        NetworkConfig {
            latency: 0.0,
            jitter: 0.0,
            loss_rate: 0.0,
        }
    }
}

/// A message scheduled for delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<M> {
    /// Simulated delivery time.
    pub time: SimTime,
    /// Sender (authenticated by the network layer).
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// The payload.
    pub message: M,
}

/// The queue's ordering key: `(time, sequence)`, with the slot of
/// [`SimNetwork::slots`] that holds the delivery. Sequences are unique, so
/// the slot never decides the order; the heap sifts these 24 bytes instead
/// of whole messages.
#[derive(Debug)]
struct Scheduled {
    time: SimTime,
    sequence: u64,
    slot: usize,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.sequence == other.sequence
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.sequence.cmp(&other.sequence))
    }
}

/// Counters describing the traffic the network has carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NetworkStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages dropped by loss, partitions or crashed recipients.
    pub dropped: u64,
    /// Messages delivered to their recipient.
    pub delivered: u64,
}

/// The discrete-event network: a priority queue of in-flight messages plus
/// partition and crash state.
#[derive(Debug)]
pub(crate) struct SimNetwork<M> {
    config: NetworkConfig,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// The in-flight deliveries, indexed by [`Scheduled::slot`]; a popped
    /// slot is `None` and waits in `free` for the next send, so the vector
    /// never outgrows the peak number of messages in flight.
    slots: Vec<Option<Delivery<M>>>,
    free: Vec<usize>,
    now: SimTime,
    sequence: u64,
    /// The network's own randomness (loss and jitter draws). Owning the RNG
    /// — instead of borrowing the caller's on every send — is what lets
    /// [`SimNetwork`] implement the [`Transport`] trait that the threaded
    /// transport shares.
    rng: StdRng,
    /// Pairs `(a, b)` that cannot communicate (in either direction).
    partitioned: BTreeSet<(NodeId, NodeId)>,
    crashed: BTreeSet<NodeId>,
    stats: NetworkStats,
}

impl<M> SimNetwork<M> {
    /// Creates a network with the given link profile. The seed drives the
    /// network's loss and jitter draws: the same `(config, seed)` pair plus
    /// the same send sequence produces a byte-identical delivery schedule.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`NetworkConfig::new`]);
    /// fallible callers should run [`NetworkConfig::validate`] first.
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        if let Err(error) = config.validate() {
            panic!("invalid network config: {error}");
        }
        SimNetwork {
            config,
            queue: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            now: 0.0,
            sequence: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x006e_6574_776f_726b_u64),
            partitioned: BTreeSet::new(),
            crashed: BTreeSet::new(),
            stats: NetworkStats::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Replaces the link profile at the current simulated time. Messages
    /// already in flight keep their scheduled delivery; subsequent sends use
    /// the new latency/jitter/loss. This is how fault-injection harnesses
    /// model delay and loss storms.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`NetworkConfig::new`]).
    pub(crate) fn set_config(&mut self, config: NetworkConfig) {
        if let Err(error) = config.validate() {
            panic!("invalid network config: {error}");
        }
        self.config = config;
    }

    /// Number of messages currently in flight.
    pub(crate) fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Pops the next delivery, advancing the simulated clock to its time.
    /// Messages addressed to nodes that crashed while the message was in
    /// flight are silently dropped.
    #[cfg(test)]
    pub(crate) fn next_delivery(&mut self) -> Option<Delivery<M>> {
        self.next_delivery_until(f64::INFINITY)
    }

    /// Pops the next delivery scheduled at or before `deadline`, advancing
    /// the simulated clock to its time. Messages at the head of the queue
    /// that must be dropped (crashed or partitioned recipient) are consumed
    /// regardless, but a *deliverable* message beyond the deadline stays
    /// queued and the clock does not jump past it — event loops driving the
    /// network in bounded time slices must use this (a plain
    /// [`SimNetwork::next_delivery`] after peeking the head's time could
    /// skip over a dropped head and dispatch a message far beyond the
    /// deadline).
    pub(crate) fn next_delivery_until(&mut self, deadline: SimTime) -> Option<Delivery<M>> {
        while let Some(Reverse(scheduled)) = self.queue.peek() {
            if scheduled.time > deadline {
                return None;
            }
            let Reverse(scheduled) = self.queue.pop().expect("peeked entry");
            let delivery = self.slots[scheduled.slot].take().expect("queued slot");
            self.free.push(scheduled.slot);
            self.now = self.now.max(scheduled.time);
            if self.crashed.contains(&delivery.to)
                || self.is_partitioned(delivery.from, delivery.to)
            {
                self.stats.dropped += 1;
                continue;
            }
            self.stats.delivered += 1;
            return Some(delivery);
        }
        None
    }

    /// Advances the clock without delivering anything (used to model idle
    /// periods and timeouts).
    pub(crate) fn advance_to(&mut self, time: SimTime) {
        if time > self.now {
            self.now = time;
        }
    }

    /// Blocks communication between every node in `group_a` and every node in
    /// `group_b` (both directions).
    pub(crate) fn partition(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        for &a in group_a {
            for &b in group_b {
                self.partitioned.insert(ordered(a, b));
            }
        }
    }

    /// Removes all partitions.
    pub(crate) fn heal_partitions(&mut self) {
        self.partitioned.clear();
    }

    /// Whether two nodes are currently partitioned from each other.
    fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitioned.contains(&ordered(a, b))
    }

    /// Marks a node as crashed: it no longer sends or receives.
    pub(crate) fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Restarts a crashed node.
    pub(crate) fn restart(&mut self, node: NodeId) {
        self.crashed.remove(&node);
    }
}

impl<M> Transport<M> for SimNetwork<M> {
    /// Sends a message from `from` to `to`, scheduling its delivery after the
    /// configured latency and jitter, unless it is lost or the endpoints are
    /// partitioned or crashed.
    fn send(&mut self, from: NodeId, to: NodeId, message: M) {
        self.stats.sent += 1;
        if self.crashed.contains(&from) || self.crashed.contains(&to) {
            self.stats.dropped += 1;
            return;
        }
        if self.is_partitioned(from, to) {
            self.stats.dropped += 1;
            return;
        }
        if self.config.loss_rate > 0.0 && self.rng.random::<f64>() < self.config.loss_rate {
            self.stats.dropped += 1;
            return;
        }
        let jitter = if self.config.jitter > 0.0 {
            self.rng.random::<f64>() * self.config.jitter
        } else {
            0.0
        };
        let time = self.now + self.config.latency + jitter;
        self.sequence += 1;
        let delivery = Some(Delivery {
            time,
            from,
            to,
            message,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = delivery;
                slot
            }
            None => {
                self.slots.push(delivery);
                self.slots.len() - 1
            }
        };
        self.queue.push(Reverse(Scheduled {
            time,
            sequence: self.sequence,
            slot,
        }));
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    #[test]
    fn messages_are_delivered_in_time_order() {
        let mut net: SimNetwork<&'static str> = SimNetwork::new(
            NetworkConfig {
                latency: 0.01,
                jitter: 0.05,
                loss_rate: 0.0,
            },
            1,
        );
        for _ in 0..50 {
            net.send(0, 1, "m");
        }
        let mut last = 0.0;
        let mut count = 0;
        while let Some(delivery) = net.next_delivery() {
            assert!(delivery.time >= last);
            last = delivery.time;
            count += 1;
            assert_eq!(delivery.from, 0);
            assert_eq!(delivery.to, 1);
        }
        assert_eq!(count, 50);
        assert_eq!(net.stats().delivered, 50);
        assert!(net.now() >= 0.01);
    }

    #[test]
    fn loss_rate_drops_messages() {
        let mut net: SimNetwork<u32> = SimNetwork::new(
            NetworkConfig {
                latency: 0.0,
                jitter: 0.0,
                loss_rate: 0.5,
            },
            1,
        );
        for i in 0..1000 {
            net.send(0, 1, i);
        }
        let stats = net.stats();
        assert_eq!(stats.sent, 1000);
        assert!(
            stats.dropped > 350 && stats.dropped < 650,
            "dropped {}",
            stats.dropped
        );
    }

    #[test]
    fn partitions_block_both_directions_until_healed() {
        let mut net: SimNetwork<u32> = SimNetwork::new(NetworkConfig::ideal(), 1);
        net.partition(&[0, 1], &[2, 3]);
        assert!(net.is_partitioned(0, 2));
        assert!(net.is_partitioned(3, 1));
        assert!(!net.is_partitioned(0, 1));
        net.send(0, 2, 7);
        net.send(2, 0, 8);
        net.send(0, 1, 9);
        let delivered: Vec<u32> = std::iter::from_fn(|| net.next_delivery())
            .map(|d| d.message)
            .collect();
        assert_eq!(delivered, vec![9]);
        net.heal_partitions();
        net.send(0, 2, 10);
        assert_eq!(net.next_delivery().unwrap().message, 10);
    }

    #[test]
    fn partition_while_in_flight_drops_message() {
        let mut net: SimNetwork<u32> = SimNetwork::new(
            NetworkConfig {
                latency: 1.0,
                jitter: 0.0,
                loss_rate: 0.0,
            },
            1,
        );
        net.send(0, 1, 1);
        net.partition(&[0], &[1]);
        assert!(net.next_delivery().is_none());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn crashed_nodes_do_not_send_or_receive() {
        let mut net: SimNetwork<u32> = SimNetwork::new(NetworkConfig::ideal(), 1);
        net.crash(1);
        assert!(net.crashed.contains(&1));
        net.send(0, 1, 1);
        net.send(1, 0, 2);
        assert!(net.next_delivery().is_none());
        net.restart(1);
        assert!(!net.crashed.contains(&1));
        net.send(0, 1, 3);
        assert_eq!(net.next_delivery().unwrap().message, 3);
    }

    #[test]
    fn broadcast_reaches_all_but_self() {
        let mut net: SimNetwork<u8> = SimNetwork::new(NetworkConfig::ideal(), 1);
        net.broadcast(0, &[0, 1, 2, 3], &1);
        let mut recipients: Vec<NodeId> = std::iter::from_fn(|| net.next_delivery())
            .map(|d| d.to)
            .collect();
        recipients.sort_unstable();
        assert_eq!(recipients, vec![1, 2, 3]);
    }

    #[test]
    fn config_validation_rejects_out_of_range_fields() {
        assert!(NetworkConfig::new(0.01, 0.0, 0.5).is_ok());
        assert!(NetworkConfig::new(0.0, 0.0, 0.0).is_ok());
        assert!(NetworkConfig::new(0.0, 0.0, 1.0).is_ok());

        // Rejection paths: each offending field is named in the error.
        let e = NetworkConfig::new(-0.01, 0.0, 0.0).unwrap_err();
        assert_eq!(
            e,
            NetworkConfigError::NegativeDuration {
                field: "latency",
                value: -0.01
            }
        );
        let e = NetworkConfig::new(0.0, -1.0, 0.0).unwrap_err();
        assert!(matches!(
            e,
            NetworkConfigError::NegativeDuration {
                field: "jitter",
                ..
            }
        ));
        let e = NetworkConfig::new(0.0, 0.0, 1.5).unwrap_err();
        assert!(matches!(
            e,
            NetworkConfigError::ProbabilityOutOfRange {
                field: "loss_rate",
                ..
            }
        ));
        assert!(e.to_string().contains("loss_rate"));
        assert!(NetworkConfig::new(0.0, 0.0, -0.1).is_err());
        assert!(NetworkConfig::new(f64::NAN, 0.0, 0.0).is_err());
        assert!(NetworkConfig::new(0.0, f64::INFINITY, 0.0).is_err());
        assert!(NetworkConfig::new(0.0, 0.0, f64::NAN).is_err());
    }

    #[test]
    fn clamped_projects_into_the_admissible_range() {
        let wild = NetworkConfig {
            latency: -3.0,
            jitter: f64::NAN,
            loss_rate: 2.5,
        };
        let clamped = wild.clamped();
        assert!(clamped.validate().is_ok());
        assert_eq!(clamped.latency, 0.0);
        assert_eq!(clamped.jitter, 0.0);
        assert_eq!(clamped.loss_rate, 1.0);
        // An already-valid config is unchanged.
        assert_eq!(NetworkConfig::default().clamped(), NetworkConfig::default());
    }

    #[test]
    #[should_panic(expected = "invalid network config")]
    fn sim_network_rejects_invalid_configs_on_construction() {
        let _net: SimNetwork<u8> = SimNetwork::new(
            NetworkConfig {
                latency: 0.0,
                jitter: 0.0,
                loss_rate: -0.5,
            },
            1,
        );
    }

    #[test]
    fn set_config_switches_the_link_profile_mid_run() {
        let mut net: SimNetwork<u32> = SimNetwork::new(NetworkConfig::ideal(), 1);
        net.send(0, 1, 1);
        // Storm: everything sent from now on is lost.
        net.set_config(NetworkConfig {
            latency: 0.0,
            jitter: 0.0,
            loss_rate: 1.0,
        });
        assert_eq!(net.config.loss_rate, 1.0);
        net.send(0, 1, 2);
        // The pre-storm message is already scheduled and still delivered.
        assert_eq!(net.next_delivery().unwrap().message, 1);
        assert!(net.next_delivery().is_none());
        assert_eq!(net.stats().dropped, 1);
        // Healing restores delivery.
        net.set_config(NetworkConfig::ideal());
        net.send(0, 1, 3);
        assert_eq!(net.next_delivery().unwrap().message, 3);
    }

    /// The queue as a plain vector of `(time, sequence, delivery)`, searched
    /// for its minimum on every pop — the order the heap must reproduce.
    #[derive(Default)]
    struct ReferenceQueue {
        now: SimTime,
        sequence: u64,
        queue: Vec<(SimTime, u64, Delivery<u32>)>,
        crashed: BTreeSet<NodeId>,
        partitioned: BTreeSet<(NodeId, NodeId)>,
    }

    impl ReferenceQueue {
        fn blocked(&self, from: NodeId, to: NodeId) -> bool {
            self.partitioned.contains(&ordered(from, to))
        }

        fn send(&mut self, from: NodeId, to: NodeId, latency: f64, message: u32) {
            if self.crashed.contains(&from) || self.crashed.contains(&to) || self.blocked(from, to)
            {
                return;
            }
            self.sequence += 1;
            let time = self.now + latency;
            let delivery = Delivery {
                time,
                from,
                to,
                message,
            };
            self.queue.push((time, self.sequence, delivery));
        }

        fn next_delivery_until(&mut self, deadline: SimTime) -> Option<Delivery<u32>> {
            loop {
                let (index, &(time, _, _)) = (self.queue.iter().enumerate())
                    .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))?;
                if time > deadline {
                    return None;
                }
                let (_, _, delivery) = self.queue.remove(index);
                self.now = self.now.max(time);
                if !self.crashed.contains(&delivery.to) && !self.blocked(delivery.from, delivery.to)
                {
                    return Some(delivery);
                }
            }
        }
    }

    #[test]
    fn slab_queue_delivers_in_time_sequence_order() {
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net: SimNetwork<u32> = SimNetwork::new(NetworkConfig::ideal(), seed);
            let mut reference = ReferenceQueue::default();
            let (mut next_message, mut peak, mut delivered) = (0u32, 0usize, 0u64);
            for _ in 0..2_000 {
                let (a, b) = (rng.random_range(0..5u32), rng.random_range(0..5u32));
                match rng.random_range(0..100u32) {
                    // A latency from a coarse grid: many sends share a time
                    // and only the sequence orders them.
                    0..=54 => {
                        let latency = f64::from(rng.random_range(0..4u32)) * 0.001;
                        net.set_config(NetworkConfig {
                            latency,
                            ..NetworkConfig::ideal()
                        });
                        net.send(a, b, next_message);
                        reference.send(a, b, latency, next_message);
                        next_message += 1;
                    }
                    55..=84 => {
                        let deadline = net.now() + f64::from(rng.random_range(0..3u32)) * 0.001;
                        let got = net.next_delivery_until(deadline);
                        delivered += u64::from(got.is_some());
                        assert_eq!(got, reference.next_delivery_until(deadline));
                        assert_eq!(net.now(), reference.now);
                    }
                    85..=89 => {
                        net.crash(a);
                        reference.crashed.insert(a);
                    }
                    90..=93 => {
                        net.restart(a);
                        reference.crashed.remove(&a);
                    }
                    94..=97 => {
                        net.partition(&[a], &[b]);
                        reference.partitioned.insert(ordered(a, b));
                    }
                    _ => {
                        net.heal_partitions();
                        reference.partitioned.clear();
                    }
                }
                assert_eq!(net.in_flight(), reference.queue.len());
                peak = peak.max(net.in_flight());
                assert!(net.slots.len() <= peak, "slots outgrew the in-flight peak");
            }
            while let Some(delivery) = net.next_delivery() {
                delivered += 1;
                assert_eq!(Some(delivery), reference.next_delivery_until(f64::INFINITY));
            }
            assert_eq!(reference.next_delivery_until(f64::INFINITY), None);
            assert_eq!(net.stats().delivered, delivered);
            assert_eq!(net.free.len(), net.slots.len(), "every slot returns");
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut net: SimNetwork<u8> = SimNetwork::new(NetworkConfig::ideal(), 1);
        net.advance_to(5.0);
        assert_eq!(net.now(), 5.0);
        net.advance_to(2.0);
        assert_eq!(net.now(), 5.0, "clock must not go backwards");
        assert_eq!(net.in_flight(), 0);
    }
}
