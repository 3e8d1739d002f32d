//! Real-socket transport: MinBFT over loopback/LAN TCP.
//!
//! The third [`Transport`] implementation. Where `crate::net::SimNetwork`
//! is deterministic simulation and [`crate::transport::ThreadedTransport`]
//! is in-process channels, a [`SocketTransport`] puts every replica behind
//! a real `TcpListener`, serializes every message through the
//! [`crate::wire`] codec, and pays serialization plus kernel round trips —
//! so a cluster runs as N separate OS processes (see the `minbft-node`
//! binary) and the throughput numbers include the costs the in-process
//! transports skip.
//!
//! Architecture (per process):
//!
//! * **Listener thread** — accepts inbound connections and spawns one
//!   *reader thread* per connection. A reader issues one `read` into a
//!   reusable [`FrameBuffer`] and delivers every complete frame it holds to
//!   the local node mailboxes; the first malformed frame drops the
//!   connection (counted, never a panic).
//! * **Outbound connections, written by the sender** — every remote
//!   *address* added via [`SocketTransport::add_peer`] gets one `TcpStream`,
//!   shared by all node ids that live there (16 client ids on one hub are
//!   one connection). The sending thread dials the connection when it is
//!   down and writes its frames itself, under the connection's lock;
//!   nothing is queued. Both are bounded, so a peer cannot stall a sender
//!   for long: a dial gives up after `DIAL_TIMEOUT` (`connect_timeout`, on
//!   the sending thread), and a write after the socket's `WRITE_TIMEOUT`.
//!   A write that does not take all its frames closes the connection, so
//!   the remainder of a cut frame never waits for a later send. A refused
//!   or timed-out dial and a peer that stopped reading silence the
//!   connection for `RECONNECT_BACKOFF`; a broken one is re-dialed by the
//!   next send. What does not go out is dropped and counted (loss, exactly
//!   like the other transports), so a restarted peer becomes reachable
//!   again without any bookkeeping by the protocol layer — and is greeted
//!   by fresh traffic, because nothing waits.
//! * **Local mailboxes** — nodes living in this process (replica threads,
//!   client driver pools) register bounded in-process mailboxes, exactly
//!   like the threaded transport; a send to a local node skips TCP.
//!
//! Cost scales with steps and connections, not messages:
//! [`Transport::send_batch`] encodes a broadcast once, groups a batch's
//! frames per connection and writes each connection's frames with one
//! `write`; the replica loop hands over a whole burst of steps as one
//! batch. A bare [`Transport::send`] is a batch of one and is written
//! before it returns — nothing waits for a flush.
//!
//! The peer directory is live: [`SocketTransport::add_peer`] registers and
//! re-addresses peers while the cluster runs, which is what JOIN needs
//! across processes.

use crate::crypto::{KeyDirectory, KeyPair};
use crate::minbft::{ControlMessage, Message, Replica};
use crate::net::Delivery;
use crate::threaded::{ReplicaLoop, ReplicaSnapshot, ThreadedServiceConfig};
use crate::transport::{Outgoing, Transport, TransportStats, WallClock};
use crate::wire::{encode_frame_into, FrameBuffer, FRAME_HEADER_LEN};
use crate::NodeId;
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection stays silent after a failed dial or a stalled
/// write before a send dials again; sends meanwhile drop. Long enough not
/// to spin against a dead peer, short enough that a restarted replica is
/// reachable again well under any protocol timeout.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(50);

/// How often a reader blocked on its socket looks at the shutdown flag:
/// the bound on how long a reader outlives its transport.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// The longest a dial may hold a sending thread: far above a loopback or
/// LAN handshake, and a fifth of `RECONNECT_BACKOFF`, so a black-holed
/// address takes at most a sixth of a sender's time.
const DIAL_TIMEOUT: Duration = Duration::from_millis(10);

/// The longest one `write` may wait for a peer to make room (the socket's
/// send timeout). Loopback and LAN peers drain their socket far sooner, so
/// only a peer that stopped reading meets it.
const WRITE_TIMEOUT: Duration = Duration::from_millis(20);

/// Traffic and robustness counters of a [`SocketTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SocketStats {
    /// Messages handed to the transport.
    pub sent: u64,
    /// Messages dropped: unknown recipient, full local mailbox, or bound
    /// for a peer that could not be dialed or did not take the whole frame.
    pub dropped: u64,
    /// Inbound connections dropped because a frame failed to decode.
    pub decode_errors: u64,
    /// Outbound re-dials after a broken or refused connection.
    pub reconnects: u64,
    /// `write`s that took all the frames a send had for one connection.
    pub writes: u64,
    /// `read` calls that returned bytes to reader threads.
    pub reads: u64,
}

#[derive(Debug, Default)]
struct Counters {
    sent: AtomicU64,
    dropped: AtomicU64,
    decode_errors: AtomicU64,
    reconnects: AtomicU64,
    writes: AtomicU64,
    reads: AtomicU64,
}

/// One outbound connection, shared by every node id at `addr`. Its lock
/// keeps one send's frames together on the stream; dropping the last
/// reference closes the stream.
struct PeerConn {
    addr: SocketAddr,
    link: Mutex<Link>,
}

/// The sending side of a [`PeerConn`].
#[derive(Default)]
struct Link {
    /// Open, and every byte written to it so far belongs to a whole frame.
    stream: Option<TcpStream>,
    /// While down, no dial before this instant.
    quiet_until: Option<Instant>,
    /// A dial has succeeded before: the next one is a reconnect.
    dialed: bool,
}

impl PeerConn {
    /// Writes `frames` (whole frames, back to back) with one `write`,
    /// dialing first if the connection is down, and returns how many of them
    /// did not go out. A write that does not take them all closes the
    /// connection — a cut frame can never be completed — and, when the peer
    /// stopped reading, silences it for `RECONNECT_BACKOFF`.
    fn write(&self, frames: &[u8], counters: &Counters) -> u64 {
        let mut link = self.link.lock().expect("link lock");
        let Some(stream) = link.connect(self.addr, counters) else {
            return whole_frames(frames);
        };
        let (written, stalled) = match stream.write(frames) {
            Ok(n) if n == frames.len() => {
                counters.writes.fetch_add(1, Ordering::Relaxed);
                return 0;
            }
            // A blocking write returns short when the peer made no room for
            // the rest within the send timeout.
            Ok(n) => (n, true),
            Err(error) => (
                0,
                matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            ),
        };
        link.stream = None;
        if stalled {
            link.quiet_until = Some(Instant::now() + RECONNECT_BACKOFF);
        }
        whole_frames(frames) - whole_frames(&frames[..written])
    }
}

impl Link {
    /// The open stream, dialed first if it is down and not silenced; a
    /// failed dial silences it.
    fn connect(&mut self, addr: SocketAddr, counters: &Counters) -> Option<&mut TcpStream> {
        if self.stream.is_none() && self.quiet_until.is_none_or(|until| Instant::now() >= until) {
            // Without its send timeout a stream could hold a sender forever.
            let dial = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT).and_then(|fresh| {
                fresh.set_write_timeout(Some(WRITE_TIMEOUT))?;
                let _ = fresh.set_nodelay(true);
                Ok(fresh)
            });
            match dial {
                Ok(fresh) => {
                    if self.dialed {
                        counters.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    self.dialed = true;
                    self.stream = Some(fresh);
                }
                Err(_) => self.quiet_until = Some(Instant::now() + RECONNECT_BACKOFF),
            }
        }
        self.stream.as_mut()
    }
}

/// How many whole frames `bytes` starts with.
fn whole_frames(mut bytes: &[u8]) -> u64 {
    let mut frames = 0;
    while let Some(prefix) = bytes.first_chunk::<4>() {
        let Some(rest) = bytes.get(4 + u32::from_le_bytes(*prefix) as usize..) else {
            break;
        };
        bytes = rest;
        frames += 1;
    }
    frames
}

type Mailbox = SyncSender<Delivery<Message>>;
type Mailboxes = HashMap<NodeId, Mailbox>;

/// State shared between the hub, its handles, and the I/O threads.
struct Shared {
    /// Local in-process mailboxes (replica threads, client pools).
    locals: RwLock<Mailboxes>,
    /// Remote peers: node id → the connection to its address.
    peers: RwLock<HashMap<NodeId, Arc<PeerConn>>>,
    counters: Counters,
    start: Instant,
    capacity: usize,
    shutdown: AtomicBool,
}

impl Shared {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn count_dropped(&self, messages: u64) {
        self.counters.dropped.fetch_add(messages, Ordering::Relaxed);
    }

    /// Delivers a message to `to`'s local mailbox (drop-counted, also when
    /// there is none).
    fn deliver(&self, mailbox: Option<&Mailbox>, from: NodeId, to: NodeId, message: Message) {
        let delivery = Delivery {
            time: self.now(),
            from,
            to,
            message,
        };
        match mailbox {
            Some(mailbox) if mailbox.try_send(delivery).is_ok() => {}
            _ => self.count_dropped(1),
        }
    }
}

/// A TCP socket transport hub: one listener for this process's nodes, a
/// live directory of remote peers, and in-process mailboxes for local
/// nodes. Handles ([`SocketHandle`]) implement [`Transport`] +
/// [`WallClock`] and can be moved into replica/client threads.
pub struct SocketTransport {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    listener_thread: Option<JoinHandle<()>>,
}

impl SocketTransport {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port) and
    /// starts the accept thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(addr: &str, capacity: usize) -> std::io::Result<Self> {
        assert!(capacity > 0, "queue capacity must be positive");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            locals: RwLock::new(HashMap::new()),
            peers: RwLock::new(HashMap::new()),
            counters: Counters::default(),
            start: Instant::now(),
            capacity,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let listener_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(SocketTransport {
            shared,
            local_addr,
            listener_thread: Some(listener_thread),
        })
    }

    /// The bound listener address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registers a local node and returns its mailbox. Live, like the
    /// threaded transport: peers can reach the node as soon as this
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if the node is already registered.
    pub fn register(&mut self, node: NodeId) -> Receiver<Delivery<Message>> {
        self.register_shared(&[node])
    }

    /// Registers several local nodes onto one shared mailbox (a client
    /// driver pool).
    ///
    /// # Panics
    ///
    /// Panics if any node is already registered.
    pub fn register_shared(&mut self, nodes: &[NodeId]) -> Receiver<Delivery<Message>> {
        let (sender, receiver) = sync_channel(self.shared.capacity);
        let mut locals = self.shared.locals.write().expect("locals lock");
        for &node in nodes {
            let previous = locals.insert(node, sender.clone());
            assert!(previous.is_none(), "node {node} registered twice");
        }
        receiver
    }

    /// Adds (or re-addresses) a remote peer. The first node id at `addr`
    /// gets a connection, which the first send to it dials; further ids at
    /// the same address share it, and it closes when the last of them is
    /// re-addressed. Live — existing handles reach the peer immediately.
    /// The JOIN hook across processes.
    pub fn add_peer(&mut self, node: NodeId, addr: SocketAddr) {
        let mut peers = self.shared.peers.write().expect("peers lock");
        let conn = match peers.values().find(|conn| conn.addr == addr) {
            Some(conn) => Arc::clone(conn),
            None => Arc::new(PeerConn {
                addr,
                link: Mutex::default(),
            }),
        };
        peers.insert(node, conn);
    }

    /// A clonable sender handle (implements [`Transport`] + [`WallClock`]).
    pub fn handle(&self) -> SocketHandle {
        SocketHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Traffic and robustness counters.
    pub fn stats(&self) -> SocketStats {
        let counters = &self.shared.counters;
        SocketStats {
            sent: counters.sent.load(Ordering::Relaxed),
            dropped: counters.dropped.load(Ordering::Relaxed),
            decode_errors: counters.decode_errors.load(Ordering::Relaxed),
            reconnects: counters.reconnects.load(Ordering::Relaxed),
            writes: counters.writes.load(Ordering::Relaxed),
            reads: counters.reads.load(Ordering::Relaxed),
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // Readers see the flag within `SHUTDOWN_POLL`.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Wake the accept loop so it observes the flag: connect once to our
        // own listener (errors are irrelevant — the thread also exits if
        // the listener broke).
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        if let Some(thread) = self.listener_thread.take() {
            let _ = thread.join();
        }
        // Closes the outbound connections (once no send is writing to them).
        self.shared.peers.write().expect("peers lock").clear();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let reader_shared = Arc::clone(&shared);
        std::thread::spawn(move || reader_loop(stream, reader_shared));
    }
}

/// Reads one inbound connection until EOF, an I/O error, the transport's
/// shutdown, or the first malformed frame (which is counted and drops the
/// connection — a misbehaving peer cannot make us panic or allocate beyond
/// the bytes it actually sent, see [`FrameBuffer`]).
fn reader_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    // A blocked `read` must not outlive the transport: time out and look at
    // the flag. The frame buffer keeps partial frames across timeouts.
    let _ = stream.set_read_timeout(Some(SHUTDOWN_POLL));
    let mut frames = FrameBuffer::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        match frames.read_from(&mut stream) {
            Ok(0) => return, // EOF: peer went away.
            Ok(_) => shared.counters.reads.fetch_add(1, Ordering::Relaxed),
            Err(error)
                if matches!(
                    error.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => return,
        };
        let locals = shared.locals.read().expect("locals lock");
        loop {
            match frames.next_frame() {
                Ok(Some((from, to, message))) => {
                    shared.deliver(locals.get(&to), from, to, message);
                }
                Ok(None) => break,
                Err(_) => {
                    shared
                        .counters
                        .decode_errors
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

/// A clonable sender handle of a [`SocketTransport`].
#[derive(Clone)]
pub struct SocketHandle {
    shared: Arc<Shared>,
}

impl WallClock for SocketHandle {
    fn now(&self) -> f64 {
        self.shared.now()
    }
}

impl Transport<Message> for SocketHandle {
    fn send(&mut self, from: NodeId, to: NodeId, message: Message) {
        self.send_batch(&[], vec![Outgoing::Unicast(from, to, message)]);
    }

    fn broadcast(&mut self, from: NodeId, recipients: &[NodeId], message: &Message) {
        self.send_batch(recipients, vec![Outgoing::Broadcast(from, message.clone())]);
    }

    /// One `write` per connection, on this thread, all of them before this
    /// returns.
    fn send_batch(&mut self, recipients: &[NodeId], batch: Vec<Outgoing<Message>>) {
        let shared = &*self.shared;
        let locals = shared.locals.read().expect("locals lock");
        let peers = shared.peers.read().expect("peers lock");
        let mut sent = 0;
        // The batch's frames, grouped by the connection they leave on.
        let mut pending: Vec<(Arc<PeerConn>, Vec<u8>)> = Vec::new();
        // Routes one message: into a local mailbox (same process, no TCP),
        // or appended to the frames of `to`'s connection. A message is
        // encoded once, straight into the first connection's frames it goes
        // to; `frame` remembers where (pending index, byte range), and the
        // other recipients of the broadcast copy those bytes — only the `to`
        // field differs.
        let mut route = |from, to, message: &Message, frame: &mut Option<(usize, Range<usize>)>| {
            sent += 1;
            if let Some(mailbox) = locals.get(&to) {
                return shared.deliver(Some(mailbox), from, to, message.clone());
            }
            let Some(conn) = peers.get(&to) else {
                return shared.count_dropped(1);
            };
            let known = pending.iter().position(|(c, _)| Arc::ptr_eq(c, conn));
            let index = known.unwrap_or_else(|| {
                pending.push((Arc::clone(conn), Vec::new()));
                pending.len() - 1
            });
            let at = pending[index].1.len();
            match frame {
                None => {
                    let bytes = &mut pending[index].1;
                    encode_frame_into(bytes, from, to, message);
                    *frame = Some((index, at..bytes.len()));
                }
                Some((first, range)) if *first == index => {
                    pending[index].1.extend_from_within(range.clone());
                }
                Some((first, range)) => {
                    let [(_, first), (_, bytes)] = pending
                        .get_disjoint_mut([*first, index])
                        .expect("two different connections");
                    bytes.extend_from_slice(&first[range.clone()]);
                }
            }
            pending[index].1[at + FRAME_HEADER_LEN - 4..][..4].copy_from_slice(&to.to_le_bytes());
        };
        for outgoing in &batch {
            match outgoing {
                Outgoing::Broadcast(from, message) => {
                    let mut frame = None;
                    for &to in recipients.iter().filter(|&to| to != from) {
                        route(*from, to, message, &mut frame);
                    }
                }
                Outgoing::Unicast(from, to, message) => route(*from, *to, message, &mut None),
            }
        }
        shared.counters.sent.fetch_add(sent, Ordering::Relaxed);
        // No directory lock is held while a write waits for a peer.
        drop((locals, peers));
        for (conn, frames) in pending {
            let lost = conn.write(&frames, &shared.counters);
            if lost > 0 {
                shared.count_dropped(lost);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A socket-backed replica node: the building block of multi-process
// clusters (used by the `minbft-node` binary and the in-process tests).
// ---------------------------------------------------------------------------

/// One MinBFT replica served over its own [`SocketTransport`]: the unit a
/// `minbft-node` process runs. Peers (other replicas, the client process)
/// are added by address; the replica thread is the same
/// [`crate::threaded`] event loop the in-process service runs.
pub struct SocketReplicaNode {
    transport: SocketTransport,
    id: NodeId,
    config: ThreadedServiceConfig,
    membership: Vec<NodeId>,
    mailbox: Option<Receiver<Delivery<Message>>>,
    /// The trusted control channel into the replica (recover, reconfigure,
    /// compromise) — the privileged-domain link. No `minbft-node` command
    /// feeds it, so `bind` leaves it closed; the recovery test swaps in a
    /// channel it holds the sender of.
    control_rx: Option<Receiver<ControlMessage>>,
    stop: Arc<AtomicBool>,
}

impl SocketReplicaNode {
    /// Binds the replica's listener (`addr`; port 0 for ephemeral) and
    /// registers its mailbox. `membership` is the full initial replica set
    /// (including `id`).
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    ///
    /// # Panics
    ///
    /// Panics if `membership` does not contain `id`.
    pub fn bind(
        id: NodeId,
        membership: Vec<NodeId>,
        addr: &str,
        config: &ThreadedServiceConfig,
    ) -> std::io::Result<Self> {
        assert!(membership.contains(&id), "member {id} not in membership");
        let mut transport = SocketTransport::bind(addr, config.channel_capacity)?;
        let mailbox = transport.register(id);
        let (_, control_rx) = sync_channel(1);
        Ok(SocketReplicaNode {
            transport,
            id,
            config: *config,
            membership,
            mailbox: Some(mailbox),
            control_rx: Some(control_rx),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The listener address peers should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// Registers a peer (replica or client pool) by address.
    pub fn add_peer(&mut self, node: NodeId, addr: SocketAddr) {
        self.transport.add_peer(node, addr);
    }

    /// The stop flag: setting it makes [`SocketReplicaNode::run`] return
    /// after its next poll.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Traffic counters.
    pub fn stats(&self) -> SocketStats {
        self.transport.stats()
    }

    /// Runs the replica event loop on the current thread until the stop
    /// flag is set (or the replica is evicted), and returns the shutdown
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics if called twice (the mailbox is consumed by the first run).
    pub fn run(&mut self) -> ReplicaSnapshot {
        let mailbox = self.mailbox.take().expect("run consumed the mailbox");
        let control_rx = self
            .control_rx
            .take()
            .expect("run consumed the control channel");
        let mut directory = KeyDirectory::new();
        for &member in &self.membership {
            directory.register(&KeyPair::derive(member, self.config.seed));
        }
        let replica = Replica::new(
            self.id,
            self.membership.clone(),
            directory,
            self.config.seed,
        );
        let node = ReplicaLoop {
            replica,
            mailbox,
            control_rx,
            transport: self.transport.handle(),
            params: self.config.protocol_params(self.membership.len()),
            request_timeout: self.config.request_timeout,
            signature_time: self.config.signature_time,
            tuning: None,
            trace: Vec::new(),
        };
        node.run(&self.stop, &AtomicBool::new(false))
    }
}

/// Assembles a socket service on loopback, all in this process: one
/// [`SocketReplicaNode`] per replica (own listener, own ephemeral port), the
/// client population on one more transport (the hub), every replica dialing
/// every other replica and (once per client id) the hub, the hub dialing
/// every replica — so every protocol message crosses a real TCP socket.
fn loopback_mesh(
    config: &ThreadedServiceConfig,
) -> (
    Vec<SocketReplicaNode>,
    SocketTransport,
    crate::threaded::ClientDriver<SocketHandle>,
) {
    use crate::threaded::{ClientDriver, MembershipView};
    use crate::workload::OpStream;

    let membership: Vec<NodeId> = (0..config.replicas as NodeId).collect();
    let mut nodes: Vec<SocketReplicaNode> = membership
        .iter()
        .map(|&id| {
            SocketReplicaNode::bind(id, membership.clone(), "127.0.0.1:0", config)
                .expect("bind replica listener")
        })
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(SocketReplicaNode::local_addr).collect();

    let mut hub = SocketTransport::bind("127.0.0.1:0", config.channel_capacity)
        .expect("bind client hub listener");
    let client_ids: Vec<NodeId> = (0..config.clients)
        .map(|i| crate::minbft::CLIENT_ID_BASE + i as NodeId)
        .collect();
    let mailbox = hub.register_shared(&client_ids);
    let hub_addr = hub.local_addr();

    for (i, node) in nodes.iter_mut().enumerate() {
        for (j, &addr) in addrs.iter().enumerate() {
            if i != j {
                node.add_peer(j as NodeId, addr);
            }
        }
        for &client in &client_ids {
            node.add_peer(client, hub_addr);
        }
    }
    for (j, &addr) in addrs.iter().enumerate() {
        hub.add_peer(j as NodeId, addr);
    }

    let streams: Vec<OpStream> = (0..config.clients)
        .map(|i| {
            OpStream::new(
                config.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                config.key_space,
                config.write_ratio,
            )
        })
        .collect();
    let driver = ClientDriver::over_transport(
        hub.handle(),
        mailbox,
        MembershipView::fixed(membership),
        streams,
        config.request_timeout,
    );
    (nodes, hub, driver)
}

/// Runs the full service — replicas and clients — inside this process, but
/// with every replica behind its own [`SocketTransport`], so all protocol
/// traffic pays wire encoding plus real loopback TCP. The socket
/// counterpart of [`crate::threaded::run_threaded_service`], measured by
/// the throughput bench as the socket-vs-channel axis.
///
/// # Panics
///
/// Panics when a listener cannot bind or a replica thread dies.
pub fn run_socket_service(
    config: &ThreadedServiceConfig,
) -> crate::threaded::ThreadedServiceReport {
    let (nodes, hub, mut driver) = loopback_mesh(config);
    let stops: Vec<Arc<AtomicBool>> = nodes.iter().map(SocketReplicaNode::stop_flag).collect();
    let workers: Vec<JoinHandle<(ReplicaSnapshot, SocketStats)>> = nodes
        .into_iter()
        .map(|mut node| {
            std::thread::spawn(move || {
                let snapshot = node.run();
                (snapshot, node.stats())
            })
        })
        .collect();

    let start = Instant::now();
    driver.run_for(config.duration);
    let duration = start.elapsed().as_secs_f64();
    driver.drain(10.0);
    let report = driver.report();

    for stop in &stops {
        stop.store(true, Ordering::Relaxed);
    }
    let mut snapshots = Vec::new();
    let mut sent = 0u64;
    let mut dropped = 0u64;
    for worker in workers {
        let (snapshot, stats) = worker.join().expect("replica thread");
        snapshots.push(snapshot);
        sent += stats.sent;
        dropped += stats.dropped;
    }
    let hub_stats = hub.stats();
    sent += hub_stats.sent;
    dropped += hub_stats.dropped;

    crate::threaded::ThreadedServiceReport {
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
        transport: TransportStats { sent, dropped },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::snapshots_consistent;
    use crate::wire::encode_frame;
    use std::io::Read;

    fn loopback(capacity: usize) -> SocketTransport {
        SocketTransport::bind("127.0.0.1:0", capacity).expect("bind loopback")
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let mut a = loopback(64);
        let mut b = loopback(64);
        let rx = b.register(1);
        a.add_peer(1, b.local_addr());
        let mut handle = a.handle();
        let message = Message::Reply {
            request_id: 7,
            value: 9,
            sequence: 3,
        };
        handle.send(0, 1, message.clone());
        let delivery = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(delivery.from, 0);
        assert_eq!(delivery.to, 1);
        assert_eq!(delivery.message, message);
        assert_eq!(a.stats().sent, 1);
    }

    #[test]
    fn local_nodes_bypass_tcp() {
        let mut hub = loopback(8);
        let rx = hub.register(5);
        let mut handle = hub.handle();
        handle.send(2, 5, Message::StateRequest { epoch: 0 });
        let delivery = rx.recv_timeout(Duration::from_secs(1)).expect("delivered");
        assert_eq!(delivery.to, 5);
    }

    #[test]
    fn unknown_peers_count_as_drops() {
        let hub = loopback(1);
        let mut handle = hub.handle();
        handle.send(0, 99, Message::StateRequest { epoch: 0 });
        assert_eq!(hub.stats().dropped, 1, "unknown recipient drops");
    }

    #[test]
    fn malformed_frames_drop_the_connection_not_the_process() {
        let mut hub = loopback(8);
        let rx = hub.register(1);
        let addr = hub.local_addr();

        // A frame announcing an absurd length: rejected on the prefix.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(&(u32::MAX).to_le_bytes())
            .expect("write prefix");
        // The transport closes the connection; our next read sees EOF.
        let mut buf = [0u8; 1];
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "connection closed");

        // Garbage payload under a plausible length: rejected by the decoder.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut frame = Vec::new();
        frame.extend_from_slice(&12u32.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes()); // from
        frame.extend_from_slice(&1u32.to_le_bytes()); // to
        frame.extend_from_slice(&[0xff; 4]); // not a value
        stream.write_all(&frame).expect("write frame");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "connection closed");

        // A valid frame on a fresh connection still goes through: the hub
        // survived both attacks.
        let mut sender = loopback(8);
        sender.add_peer(1, addr);
        sender
            .handle()
            .send(0, 1, Message::StateRequest { epoch: 3 });
        let delivery = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(delivery.message, Message::StateRequest { epoch: 3 });
        // Both malformed connections were counted.
        let stats = hub.stats();
        assert_eq!(stats.decode_errors, 2);
    }

    /// Polls `condition` for up to five seconds.
    fn eventually(mut condition: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if condition() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        condition()
    }

    #[test]
    fn connections_redial_after_the_peer_restarts_and_greet_it_with_fresh_traffic() {
        let mut sender = loopback(4096);
        // First incarnation of the peer.
        let mut first = loopback(8);
        let rx1 = first.register(1);
        let addr = first.local_addr();
        sender.add_peer(1, addr);
        let mut handle = sender.handle();
        handle.send(0, 1, Message::StateRequest { epoch: 0 });
        assert!(rx1.recv_timeout(Duration::from_secs(5)).is_ok());
        let port = addr.port();
        drop(first); // peer process "crashes"

        // Sends while the peer is down are dropped, not wedged. A write may
        // still land in the kernel until the peer's reset arrives; once one
        // send has found the connection broken, every later one meets a
        // refused dial or the backoff after it.
        assert!(eventually(|| {
            handle.send(0, 1, Message::StateRequest { epoch: 0 });
            sender.stats().dropped > 0
        }));
        let noticed = sender.stats().dropped;
        for epoch in 1..=200 {
            handle.send(0, 1, Message::StateRequest { epoch });
        }
        assert_eq!(
            sender.stats().dropped,
            noticed + 200,
            "nothing waits for the peer to come back"
        );

        // Peer restarts on the same port (retry briefly: the OS may lag
        // releasing it).
        let mut second = None;
        for _ in 0..100 {
            match SocketTransport::bind(&format!("127.0.0.1:{port}"), 8) {
                Ok(transport) => {
                    second = Some(transport);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut second = second.expect("rebind the port");
        let rx2 = second.register(1);
        // Keep sending until a send re-dials successfully (the backoff
        // after the last refused dial has passed): the first frame the
        // restarted peer sees was sent after its restart.
        let mut first_seen = None;
        assert!(eventually(|| {
            handle.send(0, 1, Message::StateRequest { epoch: 1_000 });
            first_seen = rx2.recv_timeout(Duration::from_millis(100)).ok();
            first_seen.is_some()
        }));
        let first_seen = first_seen.expect("a send redialed the restarted peer");
        assert_eq!(first_seen.message, Message::StateRequest { epoch: 1_000 });
        assert_eq!(sender.stats().reconnects, 1);
    }

    /// Reads exactly `frames` frames of `len` bytes each off a raw stream.
    fn read_frames(stream: &mut TcpStream, frames: usize, len: usize) -> Vec<Vec<u8>> {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut bytes = vec![0u8; frames * len];
        stream.read_exact(&mut bytes).expect("frames arrive");
        bytes.chunks(len).map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn node_ids_at_one_address_share_a_connection_that_closes_with_the_last() {
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind raw peer");
        let elsewhere = TcpListener::bind("127.0.0.1:0").expect("bind raw peer");
        let addr = peer.local_addr().expect("addr");
        let mut sender = loopback(8);
        sender.add_peer(1, addr);
        sender.add_peer(2, addr);
        let mut handle = sender.handle();
        let message = Message::StateRequest { epoch: 4 };
        handle.send(0, 1, message.clone());
        handle.send(0, 2, message.clone());
        let (mut stream, _) = peer.accept().expect("one inbound connection");
        let len = encode_frame(0, 1, &message).len();
        let frames = read_frames(&mut stream, 2, len);
        assert_eq!(frames[0], encode_frame(0, 1, &message));
        assert_eq!(frames[1], encode_frame(0, 2, &message));

        // Re-addressing one id leaves the connection to the other alone...
        sender.add_peer(1, elsewhere.local_addr().expect("addr"));
        handle.send(0, 2, message.clone());
        assert_eq!(
            read_frames(&mut stream, 1, len)[0],
            encode_frame(0, 2, &message)
        );
        // ...and re-addressing the last id at the address closes it.
        sender.add_peer(2, elsewhere.local_addr().expect("addr"));
        let mut buf = [0u8; 1];
        assert_eq!(stream.read(&mut buf).expect("EOF, not a timeout"), 0);
        peer.set_nonblocking(true).expect("nonblocking");
        assert!(peer.accept().is_err(), "both ids used one connection");
    }

    #[test]
    fn a_step_of_replies_to_one_address_is_one_write() {
        let mut sender = loopback(64);
        let mut hub = loopback(64);
        let clients: Vec<NodeId> = (10_000..10_016).collect();
        let rx = hub.register_shared(&clients);
        for &client in &clients {
            sender.add_peer(client, hub.local_addr());
        }
        let replies = clients
            .iter()
            .map(|&client| {
                let reply = Message::Reply {
                    request_id: u64::from(client),
                    value: 1,
                    sequence: 2,
                };
                Outgoing::Unicast(0, client, reply)
            })
            .collect();
        sender.handle().send_batch(&[], replies);
        for &client in &clients {
            let delivery = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
            assert_eq!((delivery.from, delivery.to), (0, client), "in send order");
        }
        let stats = sender.stats();
        assert_eq!((stats.sent, stats.dropped, stats.writes), (16, 0, 1));
        assert!(hub.stats().reads >= 1);
    }

    #[test]
    fn a_broadcast_is_encoded_once_and_patched_per_recipient() {
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind raw peer");
        let elsewhere = TcpListener::bind("127.0.0.1:0").expect("bind raw peer");
        let mut sender = loopback(8);
        for node in 1..=3 {
            sender.add_peer(node, peer.local_addr().expect("addr"));
        }
        sender.add_peer(4, elsewhere.local_addr().expect("addr"));
        let message = Message::Checkpoint {
            sequence: 100,
            log_len: 230,
            state_digest: crate::crypto::Digest(0x77),
        };
        sender.handle().broadcast(2, &[0, 1, 2, 3, 4], &message);
        let (mut stream, _) = peer.accept().expect("inbound connection");
        let len = encode_frame(2, 1, &message).len();
        // Node 0 is unknown (dropped), node 2 is the sender (skipped): two
        // frames, byte-identical except for the four `to` bytes...
        let frames = read_frames(&mut stream, 2, len);
        assert_eq!(frames[0], encode_frame(2, 1, &message));
        assert_eq!(frames[1], encode_frame(2, 3, &message));
        assert_eq!(frames[0][..8], frames[1][..8]);
        assert_eq!(frames[0][12..], frames[1][12..]);
        // ...and a third copy on the other connection.
        let (mut stream, _) = elsewhere.accept().expect("inbound connection");
        assert_eq!(
            read_frames(&mut stream, 1, len)[0],
            encode_frame(2, 4, &message)
        );
        let stats = sender.stats();
        assert_eq!((stats.sent, stats.dropped, stats.writes), (4, 1, 2));
    }

    #[test]
    fn readers_die_with_the_transport() {
        let hub = loopback(8);
        let mut idle = TcpStream::connect(hub.local_addr()).expect("connect");
        // The reader thread exists and has nothing unread when the
        // transport goes.
        idle.write_all(&[0u8; 2]).expect("half a prefix");
        assert!(eventually(|| hub.stats().reads == 1));
        drop(hub);
        idle.set_read_timeout(Some(Duration::from_secs(1)))
            .expect("timeout");
        let mut buf = [0u8; 1];
        assert_eq!(idle.read(&mut buf).expect("EOF within a second"), 0);
    }

    #[test]
    fn a_half_frame_peer_delays_nobody() {
        let mut hub = loopback(8);
        let rx = hub.register(1);
        // The slow loris: announces the largest acceptable frame, sends ten
        // bytes of it, and stays connected (what that costs in memory is
        // `wire::tests::an_announced_length_alone_allocates_nothing`).
        let mut loris = TcpStream::connect(hub.local_addr()).expect("connect");
        loris
            .write_all(&(crate::wire::MAX_FRAME_LEN as u32).to_le_bytes())
            .expect("prefix");
        loris.write_all(&[0u8; 10]).expect("ten bytes");
        assert!(eventually(|| hub.stats().reads >= 1));

        let mut sender = loopback(8);
        sender.add_peer(1, hub.local_addr());
        let started = Instant::now();
        sender
            .handle()
            .send(0, 1, Message::StateRequest { epoch: 3 });
        let delivery = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(delivery.message, Message::StateRequest { epoch: 3 });
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(hub.stats().decode_errors, 0, "incomplete, not malformed");
        drop(loris);
    }

    #[test]
    fn a_peer_that_stops_reading_delays_nobody() {
        // The write-side twin of the half-frame peer: the kernel accepts
        // connections for this listener, and nobody reads them.
        let stuck = TcpListener::bind("127.0.0.1:0").expect("bind raw peer");
        let mut healthy = loopback(64);
        let rx = healthy.register(2);
        let mut sender = loopback(8);
        sender.add_peer(1, stuck.local_addr().expect("addr"));
        sender.add_peer(2, healthy.local_addr());
        let mut handle = sender.handle();

        // A dial and a write per connection, each far below this.
        let bound = 10 * (DIAL_TIMEOUT + WRITE_TIMEOUT);
        let filler = Message::NewView {
            epoch: 0,
            view: 0,
            membership: (0..100).collect(),
            next_sequence: 0,
        };
        let per_call = 64;
        let pushed = 32 << 20;
        let calls = pushed / (per_call * encode_frame(0, 1, &filler).len()) + 1;
        let mut slowest = Duration::ZERO;
        for call in 0..calls as u64 {
            let mut unicasts = vec![Outgoing::Unicast(0, 1, filler.clone()); per_call];
            unicasts.push(Outgoing::Unicast(
                0,
                2,
                Message::StateRequest { epoch: call },
            ));
            let started = Instant::now();
            handle.send_batch(&[], unicasts);
            slowest = slowest.max(started.elapsed());
            let ping = rx.recv_timeout(bound).expect("the healthy peer keeps up");
            assert_eq!(ping.message, Message::StateRequest { epoch: call });
            // Spread over several backoff periods: the push meets several
            // connections, each filled until a write stalls.
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(slowest < bound, "a send took {slowest:?}");
        let stats = sender.stats();
        assert!(stats.reconnects > 0, "{stats:?}");
        assert!(stats.dropped > 0, "the stuck peer stalled writes");

        // The peer reads again. Closing the last connection is not a send:
        // what the transport did not count as dropped is already on its
        // way, in whole frames.
        drop(sender);
        stuck.set_nonblocking(true).expect("nonblocking");
        let mut delivered = calls as u64;
        while let Ok((mut stream, _)) = stuck.accept() {
            stream.set_nonblocking(false).expect("blocking");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            let mut frames = FrameBuffer::new();
            while frames.read_from(&mut stream).expect("EOF, not a timeout") > 0 {
                while frames.next_frame().expect("only whole frames").is_some() {
                    delivered += 1;
                }
            }
        }
        assert_eq!(stats.sent, delivered + stats.dropped, "{stats:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn add_peer_spawns_no_thread() {
        // A thread starts with its creator's name, so every thread this
        // test's transports start carries the probe's name, and the threads
        // of tests running alongside do not.
        const PROBE: &str = "add-peer-probe";
        let named_probe = || {
            std::fs::read_dir("/proc/self/task")
                .expect("task list")
                .filter(|task| {
                    let comm =
                        std::fs::read_to_string(task.as_ref().expect("task").path().join("comm"));
                    comm.is_ok_and(|comm| comm.trim_end() == PROBE)
                })
                .count()
        };
        let (before, after) = std::thread::Builder::new()
            .name(PROBE.into())
            .spawn(move || {
                let mut peers: Vec<SocketTransport> = (0..16).map(|_| loopback(8)).collect();
                let inboxes: Vec<_> = (1..=16)
                    .zip(&mut peers)
                    .map(|(id, peer)| peer.register(id))
                    .collect();
                let mut sender = loopback(8);
                let before = named_probe();
                for (id, peer) in (1..=16).zip(&peers) {
                    sender.add_peer(id, peer.local_addr());
                }
                let mut handle = sender.handle();
                for (id, inbox) in (1..=16).zip(&inboxes) {
                    handle.send(0, id, Message::StateRequest { epoch: 0 });
                    inbox
                        .recv_timeout(Duration::from_secs(5))
                        .expect("delivered");
                }
                (before, named_probe())
            })
            .expect("spawn the probe")
            .join()
            .expect("probe thread");
        assert_eq!(
            after,
            before + 16,
            "one inbound reader per peer, nothing else"
        );
    }

    /// A full 4-replica MinBFT cluster, each replica on its own socket
    /// transport (own listener, own port), clients on a fifth — all in one
    /// process, but every protocol message crosses a real TCP socket. The
    /// in-process rehearsal of the multi-process binary.
    #[test]
    fn four_replica_cluster_over_loopback_sockets_serves_clients() {
        let config = ThreadedServiceConfig {
            replicas: 4,
            clients: 4,
            batch_size: 4,
            batch_delay: 0.002,
            pipeline_window: 4,
            // Compaction off: the retained log is the complete execution
            // history, so the drain invariant can count every digest.
            checkpoint_period: 0,
            duration: 0.4,
            request_timeout: 2.0,
            ..Default::default()
        };
        let (nodes, _hub, mut driver) = loopback_mesh(&config);
        let stops: Vec<Arc<AtomicBool>> = nodes.iter().map(|n| n.stop_flag()).collect();
        let handles: Vec<JoinHandle<ReplicaSnapshot>> = nodes
            .into_iter()
            .map(|mut node| std::thread::spawn(move || node.run()))
            .collect();
        driver.run_for(config.duration);
        assert!(driver.drain(10.0), "every in-flight request completed");
        let report = driver.report();
        assert!(
            report.completed > 0,
            "clients completed requests over TCP: {report:?}"
        );

        // Let the last commit round settle across all replicas before the
        // snapshot (replies precede peer commits by one message).
        std::thread::sleep(Duration::from_millis(200));
        for stop in &stops {
            stop.store(true, Ordering::Relaxed);
        }
        let snapshots: Vec<ReplicaSnapshot> = handles
            .into_iter()
            .map(|h| h.join().expect("replica thread"))
            .collect();
        assert!(snapshots_consistent(&snapshots), "logs agree");

        // Drain invariant: every completed request appears exactly once in
        // the longest covering log.
        let longest = snapshots
            .iter()
            .max_by_key(|s| s.log_start + s.executed.len() as u64)
            .expect("snapshots");
        for digest in &report.completed_digests {
            let occurrences = longest.executed.iter().filter(|&d| d == digest).count();
            assert_eq!(occurrences, 1, "digest {digest:?} appears exactly once");
        }
    }

    /// One wall-clock run of a live recovery over sockets: `Recover` reaches
    /// replica 2 mid-run on its control channel while the clients keep the
    /// cluster busy. Safety (consistent logs, nothing lost or duplicated) is
    /// asserted hard; whether the rebuild completed before shutdown races
    /// the OS scheduler, so that outcome is returned for the caller to
    /// retry on.
    fn socket_recovery_run() -> Result<(), String> {
        let config = ThreadedServiceConfig {
            replicas: 4,
            clients: 4,
            batch_size: 4,
            batch_delay: 0.002,
            pipeline_window: 4,
            // Compaction off: every log starts at 0 and a rebuilt replica
            // adopts the complete execution history.
            checkpoint_period: 0,
            request_timeout: 2.0,
            ..Default::default()
        };
        let (mut nodes, _hub, mut driver) = loopback_mesh(&config);
        let stops: Vec<Arc<AtomicBool>> = nodes.iter().map(|n| n.stop_flag()).collect();
        let (recover, control_rx) = sync_channel(64);
        nodes[2].control_rx = Some(control_rx);
        let handles: Vec<JoinHandle<ReplicaSnapshot>> = nodes
            .into_iter()
            .map(|mut node| std::thread::spawn(move || node.run()))
            .collect();
        driver.run_for(0.2);
        recover
            .send(ControlMessage::Recover)
            .expect("the control channel outlives the run");
        driver.run_for(0.3);
        assert!(driver.drain(10.0), "every in-flight request completed");
        let report = driver.report();
        assert!(report.completed > 0, "clients completed requests");
        // Idle now: the frontiers settle and the re-announced pull is
        // answered by transfers that cover the rebuilding replica's own.
        std::thread::sleep(Duration::from_millis(300));
        for stop in &stops {
            stop.store(true, Ordering::Relaxed);
        }
        let snapshots: Vec<ReplicaSnapshot> = handles
            .into_iter()
            .map(|h| h.join().expect("replica thread"))
            .collect();
        assert!(snapshots_consistent(&snapshots), "logs agree");
        let longest = snapshots
            .iter()
            .max_by_key(|s| s.executed.len())
            .expect("snapshots");
        for digest in &report.completed_digests {
            let at: Vec<usize> = (0..longest.executed.len())
                .filter(|&i| longest.executed[i] == *digest)
                .collect();
            assert_eq!(at.len(), 1, "digest {digest:?} appears exactly once");
            for snapshot in snapshots.iter().filter(|s| s.executed.len() > at[0]) {
                assert_eq!(snapshot.executed[at[0]], *digest, "in every covering log");
            }
        }
        if snapshots[2].needs_state {
            return Err("the recovered replica never adopted a state transfer".into());
        }
        Ok(())
    }

    #[test]
    fn a_socket_served_replica_recovers_through_its_control_channel() {
        // Same three-attempt idiom as the threaded plane's live-recovery
        // test: only the catch-up expectation is retried.
        let failed: Vec<String> = (0..3).map_while(|_| socket_recovery_run().err()).collect();
        assert!(
            failed.len() < 3,
            "the socket-served recovery must complete within three attempts: {failed:?}"
        );
    }
}
