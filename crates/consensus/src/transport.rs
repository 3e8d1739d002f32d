//! Pluggable message transports for the consensus layer.
//!
//! The protocol code (MinBFT replicas) is written against the
//! [`Transport`] trait: a sender-side interface for point-to-point and
//! broadcast delivery of protocol messages. Three implementations exist:
//!
//! * `crate::net::SimNetwork` — the deterministic discrete-event network.
//!   Same seed → byte-identical delivery schedule, which is what the simnet
//!   fault-injection harness replays.
//! * [`ThreadedTransport`] — a real multi-threaded transport: one bounded
//!   channel per node, so a full cluster runs as a concurrent service with
//!   one OS thread per replica (see [`crate::threaded`]). Its nodes send
//!   through a [`TransportHandle`].
//! * [`crate::socket::SocketHandle`] — loopback/LAN TCP sockets, so a
//!   cluster runs as one OS process per replica (see [`crate::socket`]).
//!
//! A bounded channel that fills up drops the message (backpressure surfaces
//! as loss, which the protocols already tolerate and clients recover from by
//! retransmission), mirroring the loss semantics of the simulated network.
//!
//! A hand-off costs one batch, not one message: [`Transport::send_batch`]
//! on a [`TransportHandle`] reads the clock once, takes the mailbox
//! directory's read lock once and updates each shared counter once, by the
//! batch's count; `send` and `broadcast` are batches of one. The event loops
//! hand over a whole burst of steps at a time and lower the mailbox-depth
//! gauge once per burst ([`Transport::note_received`]). The gauge rises
//! *before* the `try_send`s and falls by their failures after them, so a
//! receiver that drains a delivery always finds it counted.
//!
//! The mailbox directory of a [`ThreadedTransport`] is shared between the
//! hub and every [`TransportHandle`], so nodes can be registered and
//! unregistered **while the cluster runs** — the hook behind live JOIN/EVICT
//! reconfiguration: a newly joined replica's mailbox becomes reachable from
//! every existing sender the moment it is registered, and sends to an
//! evicted replica degrade to counted drops.

use crate::net::Delivery;
use crate::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Sender-side interface of a message transport: the only way protocol code
/// emits traffic, so the same replica logic runs over the simulated network
/// and over real threads.
pub trait Transport<M> {
    /// Sends `message` from `from` to `to`. Delivery is not guaranteed
    /// (loss, partitions, full channels); protocols must tolerate drops.
    fn send(&mut self, from: NodeId, to: NodeId, message: M);

    /// Sends the same message to every node in `recipients` except `from`
    /// (cloning it).
    fn broadcast(&mut self, from: NodeId, recipients: &[NodeId], message: &M)
    where
        M: Clone,
    {
        for &to in recipients {
            if to != from {
                self.send(from, to, message.clone());
            }
        }
    }

    /// Sends `batch` in order, each [`Outgoing::Broadcast`] to every node of
    /// `recipients` except its sender. A step's output is its broadcasts
    /// and then its unicasts, and a burst of steps is their outputs one
    /// after another, so the batch order is the order per (sender,
    /// recipient) the messages leave in. The default is exactly that loop
    /// over [`Transport::broadcast`] and [`Transport::send`]; a transport
    /// whose cost is per hand-off rather than per message (both concurrent
    /// planes) overrides it to pay once per batch.
    fn send_batch(&mut self, recipients: &[NodeId], batch: Vec<Outgoing<M>>)
    where
        M: Clone,
    {
        for outgoing in batch {
            match outgoing {
                Outgoing::Broadcast(from, message) => self.broadcast(from, recipients, &message),
                Outgoing::Unicast(from, to, message) => self.send(from, to, message),
            }
        }
    }

    /// Receiver-side hook: the event loop calls this after draining
    /// `deliveries` from its mailbox, letting transports that track queue
    /// depth (the autotune backpressure gauge) lower their in-flight count.
    /// Default: no-op (the simulated network exposes depth directly).
    fn note_received(&mut self, _deliveries: usize) {}
}

/// One message of a [`Transport::send_batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outgoing<M> {
    /// `(from, message)`: to every recipient of the batch except `from`.
    Broadcast(NodeId, M),
    /// `(from, to, message)`.
    Unicast(NodeId, NodeId, M),
}

/// The shared time base a concurrent transport stamps on deliveries:
/// wall-clock seconds since the transport hub was created. The replica and
/// client loops are generic over this (plus [`Transport`]), so the same
/// event loop runs over in-process channels and over TCP sockets.
pub trait WallClock {
    /// Seconds since the transport's epoch.
    fn now(&self) -> f64;
}

impl<M> WallClock for TransportHandle<M> {
    fn now(&self) -> f64 {
        TransportHandle::now(self)
    }
}

/// Counters describing the traffic a [`ThreadedTransport`] has carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TransportStats {
    /// Messages handed to the transport.
    pub sent: u64,
    /// Messages dropped (unknown recipient, full channel, or closed
    /// mailbox).
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct Counters {
    sent: AtomicU64,
    dropped: AtomicU64,
    /// Deliveries enqueued into mailboxes and not yet drained by their
    /// receiving event loop — the fleet-wide mailbox-depth gauge the
    /// autotune loop reads as its backpressure signal. Maintained
    /// cooperatively: a sender raises it by its batch's size before the
    /// first `try_send` and lowers it by the failed ones after the last;
    /// receivers lower it through [`Transport::note_received`]. A delivery
    /// is counted before any receiver can drain it, so the gauge never
    /// undershoots and is exact at quiescence. `Relaxed` suffices: the
    /// mailbox's send (release) and receive (acquire) order each raise
    /// before the lowering for the deliveries it counted.
    inflight: AtomicU64,
}

impl Counters {
    /// Lowers the depth gauge by `deliveries`, saturating at zero: a
    /// receiver that over-counts degrades the gauge instead of wrapping it.
    fn lower_inflight(&self, deliveries: u64) {
        let _ = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                Some(depth.saturating_sub(deliveries))
            });
    }
}

/// State shared between the hub and every handle: the live mailbox
/// directory plus the traffic counters.
#[derive(Debug)]
struct Shared<M> {
    senders: RwLock<HashMap<NodeId, SyncSender<Delivery<M>>>>,
    counters: Counters,
}

/// A multi-threaded transport: one bounded mailbox per registered node.
///
/// The hub registers mailboxes and hands out [`TransportHandle`]s — cheap
/// clonable sender handles that implement [`Transport`] and can be moved
/// into per-replica threads. Messages carry the wall-clock time (seconds
/// since the hub was created) as their delivery timestamp, so the protocol's
/// timeout logic works unchanged. Registration is live: a node registered
/// after handles were handed out is immediately reachable through them.
#[derive(Debug)]
pub struct ThreadedTransport<M> {
    capacity: usize,
    start: Instant,
    shared: Arc<Shared<M>>,
}

impl<M: Send> ThreadedTransport<M> {
    /// Creates a hub whose mailboxes hold at most `capacity` messages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a rendezvous channel would deadlock a
    /// replica sending to itself-adjacent peers under load).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mailbox capacity must be positive");
        ThreadedTransport {
            capacity,
            start: Instant::now(),
            shared: Arc::new(Shared {
                senders: RwLock::new(HashMap::new()),
                counters: Counters::default(),
            }),
        }
    }

    /// Registers a node and returns the receiving end of its mailbox. Live:
    /// existing handles can reach the node immediately.
    ///
    /// # Panics
    ///
    /// Panics if the node is already registered.
    pub fn register(&mut self, node: NodeId) -> Receiver<Delivery<M>> {
        let (sender, receiver) = sync_channel(self.capacity);
        let mut senders = self.shared.senders.write().expect("mailbox lock");
        let previous = senders.insert(node, sender);
        assert!(previous.is_none(), "node {node} registered twice");
        receiver
    }

    /// Registers several nodes onto one shared mailbox (used by a client
    /// driver thread that serves a whole pool of client identities).
    ///
    /// # Panics
    ///
    /// Panics if any of the nodes is already registered.
    pub fn register_shared(&mut self, nodes: &[NodeId]) -> Receiver<Delivery<M>> {
        let (sender, receiver) = sync_channel(self.capacity);
        let mut senders = self.shared.senders.write().expect("mailbox lock");
        for &node in nodes {
            let previous = senders.insert(node, sender.clone());
            assert!(previous.is_none(), "node {node} registered twice");
        }
        receiver
    }

    /// Unregisters a node (the EVICT hook): subsequent sends to it count as
    /// drops. Returns whether the node was registered.
    pub(crate) fn unregister(&mut self, node: NodeId) -> bool {
        let mut senders = self.shared.senders.write().expect("mailbox lock");
        senders.remove(&node).is_some()
    }

    /// A clonable sender handle over the live mailbox directory.
    pub fn handle(&self) -> TransportHandle<M> {
        TransportHandle {
            shared: Arc::clone(&self.shared),
            start: self.start,
        }
    }

    /// Traffic counters (shared with every handle).
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            sent: self.shared.counters.sent.load(Ordering::Relaxed),
            dropped: self.shared.counters.dropped.load(Ordering::Relaxed),
        }
    }

    /// Deliveries currently queued across all mailboxes (approximate under
    /// concurrency, exact at quiescence) — the backpressure gauge.
    pub fn mailbox_depth(&self) -> u64 {
        self.shared.counters.inflight.load(Ordering::Relaxed)
    }
}

/// A clonable sender handle of a [`ThreadedTransport`]; the per-thread face
/// of the transport.
#[derive(Debug)]
pub struct TransportHandle<M> {
    shared: Arc<Shared<M>>,
    start: Instant,
}

impl<M> Clone for TransportHandle<M> {
    fn clone(&self) -> Self {
        TransportHandle {
            shared: Arc::clone(&self.shared),
            start: self.start,
        }
    }
}

impl<M> TransportHandle<M> {
    /// Wall-clock seconds since the hub was created — the time base stamped
    /// on deliveries, shared by every thread of the cluster.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Deliveries currently queued across all mailboxes (see
    /// [`ThreadedTransport::mailbox_depth`]).
    pub fn mailbox_depth(&self) -> u64 {
        self.shared.counters.inflight.load(Ordering::Relaxed)
    }
}

impl<M: Clone + Send> Transport<M> for TransportHandle<M> {
    fn send(&mut self, from: NodeId, to: NodeId, message: M) {
        self.send_batch(&[], vec![Outgoing::Unicast(from, to, message)]);
    }

    fn broadcast(&mut self, from: NodeId, recipients: &[NodeId], message: &M) {
        self.send_batch(recipients, vec![Outgoing::Broadcast(from, message.clone())]);
    }

    /// One clock read, one read of the mailbox directory and one update of
    /// each counter for the whole batch. A broadcast's last recipient gets
    /// the message itself, the others a clone.
    fn send_batch(&mut self, recipients: &[NodeId], batch: Vec<Outgoing<M>>) {
        let messages: usize = batch
            .iter()
            .map(|outgoing| match outgoing {
                Outgoing::Broadcast(from, _) => recipients.iter().filter(|&to| to != from).count(),
                Outgoing::Unicast(..) => 1,
            })
            .sum();
        if messages == 0 {
            return;
        }
        let counters = &self.shared.counters;
        counters.sent.fetch_add(messages as u64, Ordering::Relaxed);
        counters
            .inflight
            .fetch_add(messages as u64, Ordering::Relaxed);
        let time = self.now();
        let senders = self.shared.senders.read().expect("mailbox lock");
        let mut dropped = 0;
        let mut deliver = |from, to, message| {
            let delivery = Delivery {
                time,
                from,
                to,
                message,
            };
            // Unknown recipient, full or disconnected mailbox: backpressure
            // surfaces as loss.
            let queued = senders
                .get(&to)
                .is_some_and(|sender| sender.try_send(delivery).is_ok());
            dropped += u64::from(!queued);
        };
        for outgoing in batch {
            match outgoing {
                Outgoing::Broadcast(from, message) => {
                    let mut targets = recipients.iter().filter(|&&to| to != from).peekable();
                    while let Some(&to) = targets.next() {
                        if targets.peek().is_none() {
                            deliver(from, to, message);
                            break;
                        }
                        deliver(from, to, message.clone());
                    }
                }
                Outgoing::Unicast(from, to, message) => deliver(from, to, message),
            }
        }
        drop(senders);
        if dropped > 0 {
            counters.dropped.fetch_add(dropped, Ordering::Relaxed);
            counters.lower_inflight(dropped);
        }
    }

    fn note_received(&mut self, deliveries: usize) {
        self.shared.counters.lower_inflight(deliveries as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn messages_reach_registered_mailboxes() {
        let mut hub: ThreadedTransport<u32> = ThreadedTransport::new(8);
        let rx = hub.register(1);
        let mut handle = hub.handle();
        handle.send(0, 1, 42);
        let delivery = rx.recv().expect("delivered");
        assert_eq!(delivery.from, 0);
        assert_eq!(delivery.to, 1);
        assert_eq!(delivery.message, 42);
        assert!(delivery.time >= 0.0);
        assert_eq!(
            hub.stats(),
            TransportStats {
                sent: 1,
                dropped: 0
            }
        );
    }

    #[test]
    fn unknown_recipients_and_full_mailboxes_count_as_drops() {
        let mut hub: ThreadedTransport<u32> = ThreadedTransport::new(2);
        let _rx = hub.register(1);
        let mut handle = hub.handle();
        handle.send(0, 9, 1); // unknown
        handle.send(0, 1, 2);
        handle.send(0, 1, 3);
        handle.send(0, 1, 4); // capacity 2: dropped
        let stats = hub.stats();
        assert_eq!(stats.sent, 4);
        assert_eq!(stats.dropped, 2);
    }

    #[test]
    fn broadcast_skips_the_sender_and_shared_mailboxes_fan_in() {
        let mut hub: ThreadedTransport<&'static str> = ThreadedTransport::new(8);
        let shared = hub.register_shared(&[10, 11, 12]);
        let mut handle = hub.handle();
        handle.broadcast(10, &[10, 11, 12], &"hello");
        let mut recipients: Vec<NodeId> = (0..2).map(|_| shared.recv().unwrap().to).collect();
        recipients.sort_unstable();
        assert_eq!(recipients, vec![11, 12]);
        assert!(shared.try_recv().is_err(), "sender must not self-deliver");
    }

    #[test]
    fn handles_work_across_threads() {
        let mut hub: ThreadedTransport<u64> = ThreadedTransport::new(64);
        let rx = hub.register(0);
        let handle = hub.handle();
        let workers: Vec<_> = (1..4u64)
            .map(|w| {
                let mut handle = handle.clone();
                std::thread::spawn(move || {
                    for i in 0..10 {
                        handle.send(w as NodeId, 0, w * 100 + i);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker finishes");
        }
        let received: Vec<u64> = rx.try_iter().map(|d| d.message).collect();
        assert_eq!(received.len(), 30);
    }

    #[test]
    fn mailbox_depth_tracks_enqueued_minus_drained() {
        let mut hub: ThreadedTransport<u32> = ThreadedTransport::new(4);
        let rx = hub.register(1);
        let mut handle = hub.handle();
        handle.send(0, 1, 10);
        handle.send(0, 1, 11);
        handle.send(0, 9, 12); // unknown recipient: dropped, not queued
        assert_eq!(hub.mailbox_depth(), 2);
        let _ = rx.recv().unwrap();
        handle.note_received(1);
        assert_eq!(handle.mailbox_depth(), 1);
        let _ = rx.recv().unwrap();
        // Over-counting saturates at zero instead of wrapping.
        handle.note_received(2);
        assert_eq!(hub.mailbox_depth(), 0);
    }

    #[test]
    fn mailbox_depth_is_zero_once_every_delivery_is_drained() {
        // Four senders race one receiver that drains in bursts. A gauge
        // raised only after a successful `try_send` lets the receiver lower
        // it first (saturating at zero), and the late raise then stays. The
        // senders yield after every hand-off so the receiver keeps the
        // gauge near zero, where that race lands: a gauge raised late fails
        // this test in 20 of 20 runs on a 2-thread host.
        let mut hub: ThreadedTransport<u64> = ThreadedTransport::new(16);
        let rx = hub.register(0);
        let start = Arc::new(Barrier::new(5));
        let senders: Vec<_> = (1..=4u64)
            .map(|sender| {
                let mut handle = hub.handle();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let from = sender as NodeId;
                    start.wait();
                    for i in 0..20_000 {
                        if i % 2 == 0 {
                            handle.send(from, 0, i);
                        } else {
                            let batch =
                                vec![Outgoing::Broadcast(from, i), Outgoing::Unicast(from, 0, i)];
                            handle.send_batch(&[0, from], batch);
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        let mut receiver = hub.handle();
        let mut received = 0;
        let mut drain = || {
            let drained = rx.try_iter().take(64).count();
            if drained > 0 {
                receiver.note_received(drained);
            } else {
                std::thread::yield_now();
            }
            received += drained as u64;
            drained
        };
        start.wait();
        while !senders.iter().all(std::thread::JoinHandle::is_finished) {
            drain();
        }
        while drain() > 0 {}
        for sender in senders {
            sender.join().expect("sender finishes");
        }
        let stats = hub.stats();
        assert_eq!(stats.sent, 4 * 30_000);
        assert_eq!(received + stats.dropped, stats.sent);
        assert_eq!(hub.mailbox_depth(), 0, "{stats:?}, {received} received");
    }

    #[test]
    fn send_batch_counts_and_orders_like_single_sends() {
        // Recipient 9 is unknown, node 1's mailbox fills partway through,
        // and the broadcasts skip their sender (1, then 2).
        let batch = vec![
            Outgoing::Unicast(0, 1, 10),
            Outgoing::Broadcast(1, 11),
            Outgoing::Unicast(0, 9, 12),
            Outgoing::Unicast(2, 1, 13),
            Outgoing::Broadcast(2, 14),
            Outgoing::Unicast(0, 3, 15),
            Outgoing::Unicast(0, 1, 16),
        ];
        let recipients = [0, 1, 2, 3, 9];
        let run = |batched: bool| {
            let mut hub: ThreadedTransport<u32> = ThreadedTransport::new(3);
            let mailboxes: Vec<_> = (0..4).map(|node| hub.register(node)).collect();
            let mut handle = hub.handle();
            if batched {
                handle.send_batch(&recipients, batch.clone());
            } else {
                for outgoing in batch.clone() {
                    match outgoing {
                        Outgoing::Broadcast(from, message) => {
                            for &to in recipients.iter().filter(|&&to| to != from) {
                                handle.send(from, to, message);
                            }
                        }
                        Outgoing::Unicast(from, to, message) => handle.send(from, to, message),
                    }
                }
            }
            let depth = hub.mailbox_depth();
            let delivered: Vec<Vec<(NodeId, u32)>> = mailboxes
                .iter()
                .map(|rx| rx.try_iter().map(|d| (d.from, d.message)).collect())
                .collect();
            (hub.stats(), depth, delivered)
        };
        let batched = run(true);
        assert_eq!(batched, run(false));
        // 13 messages (five unicasts, four copies of each broadcast): three
        // to node 9 and the fourth to node 1 are dropped.
        let (stats, depth, delivered) = batched;
        assert_eq!(
            stats,
            TransportStats {
                sent: 13,
                dropped: 4
            }
        );
        assert_eq!(depth, 9);
        assert_eq!(delivered[1], vec![(0, 10), (2, 13), (2, 14)]);
        assert_eq!(delivered[3], vec![(1, 11), (2, 14), (0, 15)]);
    }

    #[test]
    fn live_registration_reaches_existing_handles() {
        // The JOIN/EVICT hook: a handle handed out *before* a node existed
        // can deliver to it afterwards, and unregistration turns sends into
        // counted drops.
        let mut hub: ThreadedTransport<u32> = ThreadedTransport::new(8);
        let mut handle = hub.handle();
        handle.send(0, 7, 1);
        assert_eq!(hub.stats().dropped, 1, "unknown node drops");
        let rx = hub.register(7);
        handle.send(0, 7, 2);
        assert_eq!(rx.recv().expect("delivered").message, 2);
        assert!(hub.unregister(7));
        assert!(!hub.unregister(7));
        handle.send(0, 7, 3);
        assert_eq!(hub.stats().dropped, 2, "evicted node drops");
    }
}
