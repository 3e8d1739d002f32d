//! `minbft-node` — run MinBFT replicas as separate OS processes over TCP.
//!
//! Two modes:
//!
//! * **`replica`** — one replica behind its own TCP listener, wired to its
//!   peers through a line protocol on stdin/stdout:
//!
//!   ```text
//!   -> LISTEN 127.0.0.1:40213          (printed after binding)
//!   <- PEER 1 127.0.0.1:40214          (one line per remote node)
//!   <- START                           (enter the replica event loop)
//!   <- STOP                            (leave the loop, snapshot, exit)
//!   -> SNAPSHOT <the ReplicaSnapshot as one line of JSON>
//!   ```
//!
//! * **`cluster`** — the loopback orchestrator: spawns N `replica` child
//!   processes, wires the full mesh, drives a closed-loop client population
//!   over its own socket transport, optionally kills one replica mid-run
//!   (`--kill-one`), then stops the survivors and checks the drain
//!   invariant (every completed request appears exactly once in the
//!   longest surviving log) and cross-replica log agreement. Exits nonzero
//!   on any violation — the CI socket-smoke entry point.
//!
//! Example — a 4-process cluster serving 1000 requests, surviving the loss
//! of one replica:
//!
//! ```text
//! minbft-node cluster --replicas 4 --clients 4 --requests 1000 --kill-one
//! ```

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::Ordering;
use std::time::Instant;

use tolerance_consensus::crypto::Digest;
use tolerance_consensus::socket::{SocketReplicaNode, SocketTransport};
use tolerance_consensus::threaded::snapshots_consistent;
use tolerance_consensus::workload::OpStream;
use tolerance_consensus::{
    ClientDriver, MembershipView, NodeId, ReplicaSnapshot, ThreadedServiceConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  minbft-node replica --id <n> --members <a,b,c,...> [options]\n  \
         minbft-node cluster [--replicas <n>] [--clients <n>] [--requests <n>] \
         [--kill-one] [options]\n\noptions (both modes): --batch-size --batch-delay \
         --checkpoint-period --pipeline-window --signature-time --request-timeout --seed"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: Option<&String>, flag: &str) -> T {
    let Some(value) = value else {
        eprintln!("missing value for {flag}");
        usage();
    };
    match value.parse() {
        Ok(parsed) => parsed,
        Err(_) => {
            eprintln!("bad value {value:?} for {flag}");
            usage();
        }
    }
}

/// The flags shared by both modes, folded into the service config.
struct CommonArgs {
    config: ThreadedServiceConfig,
    rest: HashMap<String, String>,
    flags: Vec<String>,
}

fn parse_args(args: &[String]) -> CommonArgs {
    let mut named = HashMap::new();
    let mut flags = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            eprintln!("unexpected argument {arg:?}");
            usage();
        };
        if name == "kill-one" {
            flags.push(name.to_string());
        } else {
            let Some(value) = iter.next() else {
                eprintln!("missing value for --{name}");
                usage();
            };
            named.insert(name.to_string(), value.clone());
        }
    }
    let mut config = ThreadedServiceConfig::default();
    if let Some(v) = named.get("batch-size") {
        config.batch_size = parse(Some(v), "--batch-size");
    }
    if let Some(v) = named.get("batch-delay") {
        config.batch_delay = parse(Some(v), "--batch-delay");
    }
    if let Some(v) = named.get("checkpoint-period") {
        config.checkpoint_period = parse(Some(v), "--checkpoint-period");
    }
    if let Some(v) = named.get("pipeline-window") {
        config.pipeline_window = parse(Some(v), "--pipeline-window");
    }
    if let Some(v) = named.get("signature-time") {
        config.signature_time = parse(Some(v), "--signature-time");
    }
    if let Some(v) = named.get("request-timeout") {
        config.request_timeout = parse(Some(v), "--request-timeout");
    }
    if let Some(v) = named.get("seed") {
        config.seed = parse(Some(v), "--seed");
    }
    CommonArgs {
        config,
        rest: named,
        flags,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("replica") => replica_mode(&args[1..]),
        Some("cluster") => cluster_mode(&args[1..]),
        _ => usage(),
    }
}

// ---------------------------------------------------------------------------
// replica mode
// ---------------------------------------------------------------------------

fn replica_mode(args: &[String]) -> ! {
    let parsed = parse_args(args);
    let id: NodeId = parse(parsed.rest.get("id"), "--id");
    let members: Vec<NodeId> = parse::<String>(parsed.rest.get("members"), "--members")
        .split(',')
        .map(|m| match m.trim().parse() {
            Ok(member) => member,
            Err(_) => {
                eprintln!("bad member id {m:?}");
                usage();
            }
        })
        .collect();
    let mut config = parsed.config;
    config.replicas = members.len();

    let mut node = match SocketReplicaNode::bind(id, members, "127.0.0.1:0", &config) {
        Ok(node) => node,
        Err(error) => {
            eprintln!("replica {id}: bind failed: {error}");
            std::process::exit(1);
        }
    };
    let mut stdout = std::io::stdout();
    writeln!(stdout, "LISTEN {}", node.local_addr()).expect("stdout");
    stdout.flush().expect("stdout");

    // All stdin reading happens on one dedicated thread (the lock guard is
    // not `Send`); commands arrive here over a channel.
    let (line_tx, line_rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.read_line(&mut line) {
                Ok(0) | Err(_) => return, // EOF: orchestrator went away.
                Ok(_) => {
                    if line_tx.send(line.trim().to_string()).is_err() {
                        return;
                    }
                }
            }
        }
    });

    // Wire-up phase: PEER lines until START.
    loop {
        let Ok(line) = line_rx.recv() else {
            // Orchestrator went away before START: nothing to serve.
            std::process::exit(0);
        };
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("PEER") => {
                let (Some(peer), Some(addr)) = (parts.next(), parts.next()) else {
                    eprintln!("replica {id}: bad PEER line {line:?}");
                    std::process::exit(2);
                };
                let (Ok(peer), Ok(addr)) = (peer.parse::<NodeId>(), addr.parse::<SocketAddr>())
                else {
                    eprintln!("replica {id}: bad PEER line {line:?}");
                    std::process::exit(2);
                };
                node.add_peer(peer, addr);
            }
            Some("START") => break,
            Some("STOP") => std::process::exit(0),
            _ => {
                eprintln!("replica {id}: unknown command {line:?}");
                std::process::exit(2);
            }
        }
    }

    // Serve: the watcher flips the stop flag on STOP (or on channel
    // disconnect — an orphaned replica exits when its orchestrator dies).
    let stop = node.stop_flag();
    std::thread::spawn(move || {
        loop {
            match line_rx.recv() {
                Ok(line) if line == "STOP" => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let snapshot = node.run();

    let json = serde_json::to_string(&snapshot).expect("rendering never fails");
    writeln!(stdout, "SNAPSHOT {json}").expect("stdout");
    stdout.flush().expect("stdout");
    std::process::exit(0);
}

// ---------------------------------------------------------------------------
// cluster mode
// ---------------------------------------------------------------------------

struct ReplicaProcess {
    id: NodeId,
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ReplicaProcess {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let stdin = self.child.stdin.as_mut().expect("piped stdin");
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }
}

fn fail(message: String, processes: &mut [ReplicaProcess]) -> ! {
    eprintln!("cluster: FAILED: {message}");
    for process in processes {
        let _ = process.child.kill();
    }
    std::process::exit(1);
}

fn cluster_mode(args: &[String]) -> ! {
    let parsed = parse_args(args);
    let mut config = parsed.config;
    let replicas: usize = parsed
        .rest
        .get("replicas")
        .map(|v| parse(Some(v), "--replicas"))
        .unwrap_or(4);
    let clients: usize = parsed
        .rest
        .get("clients")
        .map(|v| parse(Some(v), "--clients"))
        .unwrap_or(4);
    let requests: u64 = parsed
        .rest
        .get("requests")
        .map(|v| parse(Some(v), "--requests"))
        .unwrap_or(1000);
    let kill_one = parsed.flags.iter().any(|f| f == "kill-one");
    config.replicas = replicas;
    config.clients = clients;
    // Drain accounting needs the complete execution history retained.
    config.checkpoint_period = 0;
    assert!(replicas >= 2, "MinBFT needs at least two replicas");
    assert!(
        !kill_one || replicas >= 4,
        "--kill-one needs f >= 1, so at least 4 replicas"
    );

    let exe = std::env::current_exe().expect("own executable path");
    let members: Vec<String> = (0..replicas as NodeId).map(|id| id.to_string()).collect();
    let members_arg = members.join(",");

    // Spawn the replica processes and collect their listener addresses.
    let mut processes: Vec<ReplicaProcess> = Vec::new();
    for id in 0..replicas as NodeId {
        let mut child = Command::new(&exe)
            .arg("replica")
            .args(["--id", &id.to_string()])
            .args(["--members", &members_arg])
            .args(["--batch-size", &config.batch_size.to_string()])
            .args(["--batch-delay", &config.batch_delay.to_string()])
            .args(["--checkpoint-period", &config.checkpoint_period.to_string()])
            .args(["--pipeline-window", &config.pipeline_window.to_string()])
            .args(["--signature-time", &config.signature_time.to_string()])
            .args(["--request-timeout", &config.request_timeout.to_string()])
            .args(["--seed", &config.seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn replica process");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("LISTEN line");
        let addr: SocketAddr = match line.trim().strip_prefix("LISTEN ") {
            Some(addr) => addr.parse().expect("listener address"),
            None => {
                eprintln!("replica {id} spoke {line:?} instead of LISTEN");
                std::process::exit(1);
            }
        };
        processes.push(ReplicaProcess {
            id,
            child,
            stdout,
            addr,
        });
    }

    // The client population lives in this process, on its own transport.
    let mut hub =
        SocketTransport::bind("127.0.0.1:0", config.channel_capacity).expect("bind client hub");
    let client_ids: Vec<NodeId> = (0..clients)
        .map(|i| tolerance_consensus::CLIENT_ID_BASE + i as NodeId)
        .collect();
    let mailbox = hub.register_shared(&client_ids);
    let hub_addr = hub.local_addr();
    let addrs: Vec<(NodeId, SocketAddr)> = processes.iter().map(|p| (p.id, p.addr)).collect();
    for &(id, addr) in &addrs {
        hub.add_peer(id, addr);
    }

    // Full mesh wire-up, then START everywhere.
    for process in &mut processes {
        for &(peer, addr) in &addrs {
            if peer != process.id {
                process
                    .send(&format!("PEER {peer} {addr}"))
                    .expect("PEER line");
            }
        }
        for &client in &client_ids {
            process
                .send(&format!("PEER {client} {hub_addr}"))
                .expect("PEER line");
        }
        process.send("START").expect("START line");
    }

    let membership: Vec<NodeId> = (0..replicas as NodeId).collect();
    let streams: Vec<OpStream> = (0..clients)
        .map(|i| OpStream::for_client(config.seed, i, config.key_space, config.write_ratio))
        .collect();
    let mut driver = ClientDriver::over_transport(
        hub.handle(),
        mailbox,
        MembershipView::fixed(membership),
        streams,
        config.request_timeout,
    );

    // Drive the requested load; kill one replica halfway through if asked.
    let start = Instant::now();
    let deadline = 120.0;
    let mut killed: Option<NodeId> = None;
    while driver.report().completed < requests {
        if start.elapsed().as_secs_f64() > deadline {
            let done = driver.report().completed;
            fail(
                format!("timed out at {done}/{requests} completed requests"),
                &mut processes,
            );
        }
        driver.run_for(0.2);
        if kill_one && killed.is_none() && driver.report().completed >= requests / 2 {
            // Kill a non-leader follower outright (SIGKILL, no goodbye):
            // the cluster must keep serving on n-1 replicas.
            let victim = processes.last_mut().expect("at least one replica");
            victim.child.kill().expect("kill replica");
            let _ = victim.child.wait();
            killed = Some(victim.id);
            eprintln!(
                "cluster: killed replica {} at {} completed requests",
                victim.id,
                driver.report().completed
            );
        }
    }
    if !driver.drain(15.0) {
        fail(
            "in-flight requests did not drain".to_string(),
            &mut processes,
        );
    }
    let report = driver.report();

    // Stop the survivors and parse their snapshots.
    let mut snapshots: Vec<ReplicaSnapshot> = Vec::new();
    for process in &mut processes {
        if Some(process.id) == killed {
            continue;
        }
        if process.send("STOP").is_err() {
            eprintln!("cluster: FAILED: replica {} died unexpectedly", process.id);
            std::process::exit(1);
        }
        let mut line = String::new();
        loop {
            line.clear();
            let n = process.stdout.read_line(&mut line).expect("SNAPSHOT line");
            if n == 0 {
                eprintln!(
                    "cluster: FAILED: replica {} exited without a snapshot",
                    process.id
                );
                std::process::exit(1);
            }
            if let Some(json) = line.strip_prefix("SNAPSHOT ") {
                snapshots.push(serde_json::from_str(json).expect("SNAPSHOT json"));
                break;
            }
        }
        let _ = process.child.wait();
    }

    // Invariants: log agreement across survivors, and drain accounting —
    // every client-completed request executed exactly once.
    if !snapshots_consistent(&snapshots) {
        eprintln!("cluster: FAILED: surviving replica logs diverge");
        std::process::exit(1);
    }
    let longest = snapshots
        .iter()
        .max_by_key(|s| s.executed.len())
        .expect("at least one snapshot");
    let mut counts: HashMap<Digest, usize> = HashMap::new();
    for digest in &longest.executed {
        *counts.entry(*digest).or_default() += 1;
    }
    for digest in &report.completed_digests {
        if counts.get(digest).copied().unwrap_or(0) != 1 {
            eprintln!(
                "cluster: FAILED: completed digest {digest:?} appears {} times in the \
                 longest log",
                counts.get(digest).copied().unwrap_or(0)
            );
            std::process::exit(1);
        }
    }

    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "cluster ok: {replicas} processes, {} completed requests in {elapsed:.2}s \
         ({:.0} req/s), mean latency {:.2} ms{}",
        report.completed,
        report.completed as f64 / elapsed,
        report.mean_latency() * 1e3,
        match killed {
            Some(id) => format!(", survived killing replica {id}"),
            None => String::new(),
        }
    );
    std::process::exit(0);
}
