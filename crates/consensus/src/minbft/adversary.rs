//! Every attacker the simulator can inject, in one place. The honest core
//! (`message`, `config`, `replica`) and the live drivers know nothing of
//! this module: [`Adversary`] sits between a replica's [`StepOutput`] and
//! the [`SimNetwork`], and the one attack that must act *inside* a step —
//! equivocation, which needs consecutive USIG counters — enters through
//! `Replica::prepare_hook`, assigned only by `MinBftCluster::set_attacker`.

use super::message::{batch_digest, ByzantineMode, Message, Request, CLIENT_ID_BASE};
use super::ordering::record_ui_message;
use super::replica::{Replica, StepOutput};
use crate::crypto::digest;
use crate::hybrid_fault_threshold;
use crate::net::{Delivery, SimNetwork};
use crate::transport::Transport;
use crate::{NodeId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A protocol-aware attacker strategy a compromised replica runs with. Unlike
/// [`ByzantineMode`] (crash-style silence or value corruption), these
/// adversaries exploit the *protocol structure* while staying within the
/// USIG's monotonic-counter limits — the attacker can never forge or reuse a
/// counter, so every attack works *around* the trusted component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AttackerKind {
    /// As leader, propose two conflicting batches for the same sequence
    /// number (each with its own fresh UI) to disjoint halves of the cluster.
    EquivocatingLeader,
    /// Send COMMIT votes to everyone *except* a targeted quorum of replicas,
    /// starving them of commits.
    VoteWithholding,
    /// Hold COMMIT and VIEW-CHANGE votes and release them only at the
    /// view-change timeout boundary.
    DelayedVotes,
    /// Answer state-transfer pulls with a forged frontier (corrupted
    /// digests, inflated execution frontier).
    LyingDonor,
    /// Drop REPLY messages to a targeted client.
    ReplySuppression,
}

impl AttackerKind {
    /// Every attacker variant, in a stable order (the adversary-matrix axis).
    pub const ALL: [AttackerKind; 5] = [
        AttackerKind::EquivocatingLeader,
        AttackerKind::VoteWithholding,
        AttackerKind::DelayedVotes,
        AttackerKind::LyingDonor,
        AttackerKind::ReplySuppression,
    ];

    /// A stable kebab-case name (scenario names, counterexample JSON).
    pub fn name(&self) -> &'static str {
        match self {
            AttackerKind::EquivocatingLeader => "equivocating-leader",
            AttackerKind::VoteWithholding => "vote-withholding",
            AttackerKind::DelayedVotes => "delayed-votes",
            AttackerKind::LyingDonor => "lying-donor",
            AttackerKind::ReplySuppression => "reply-suppression",
        }
    }
}

/// The simulator's attacker state and the only path from a replica's step
/// output to the network: which replica runs which [`AttackerKind`], and
/// the votes [`AttackerKind::DelayedVotes`] attackers are holding back.
pub(super) struct Adversary {
    attackers: BTreeMap<NodeId, AttackerKind>,
    /// Drawn from only by [`ByzantineMode::Arbitrary`] corruption.
    rng: StdRng,
    /// Held votes with their release time, in insertion order (deterministic
    /// replay).
    held: Vec<Delivery<Message>>,
    /// How long a vote is held: the view-change timeout, so it lands at the
    /// timeout boundary.
    hold_for: f64,
}

impl Adversary {
    pub(super) fn new(seed: u64, hold_for: f64) -> Self {
        Adversary {
            attackers: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
            held: Vec::new(),
            hold_for,
        }
    }

    /// Assigns (or, with `None`, clears) the strategy `replica` runs with.
    pub(super) fn assign(&mut self, replica: NodeId, attacker: Option<AttackerKind>) {
        match attacker {
            Some(kind) => self.attackers.insert(replica, kind),
            None => self.attackers.remove(&replica),
        };
    }

    /// Sends one step's traffic — broadcasts, then unicasts — applying the
    /// sender's Byzantine mode and attacker strategy. An honest sender's
    /// messages reach the network as they are, through its native
    /// `broadcast`, and draw nothing from the RNG, so runs without attackers
    /// replay bit-identically; an attacker's broadcast expands to
    /// per-destination sends so each edge is decided separately.
    pub(super) fn emit(
        &mut self,
        from: &Replica,
        out: StepOutput,
        members: &[NodeId],
        network: &mut SimNetwork<Message>,
    ) {
        let (sender, mode) = (from.id, from.byzantine);
        let attacker = self.attackers.get(&sender).copied();
        for mut message in out.broadcast {
            corrupt(mode, &mut message, &mut self.rng);
            match attacker {
                None => network.broadcast(sender, members, &message),
                Some(kind) => {
                    for &dest in members.iter().filter(|&&dest| dest != sender) {
                        self.egress(kind, sender, dest, message.clone(), members, network);
                    }
                }
            }
        }
        for (dest, mut message) in out.outgoing {
            corrupt(mode, &mut message, &mut self.rng);
            match attacker {
                None => network.send(sender, dest, message),
                Some(kind) => self.egress(kind, sender, dest, message, members, network),
            }
        }
    }

    /// What an attacker does with one outgoing message. Withheld messages
    /// never reach the network (the accounting oracle never sees them as
    /// sent); held ones wait for [`Adversary::release_due`].
    fn egress(
        &mut self,
        kind: AttackerKind,
        sender: NodeId,
        to: NodeId,
        mut message: Message,
        members: &[NodeId],
        network: &mut SimNetwork<Message>,
    ) {
        match (kind, &message) {
            // Starve a targeted commit quorum: the f + 1 lowest-id peers
            // never see this attacker's COMMIT votes.
            (AttackerKind::VoteWithholding, Message::Commit { .. }) => {
                let f = hybrid_fault_threshold(members.len(), 0);
                let mut targeted = members.iter().filter(|&&id| id != sender).take(f + 1);
                if targeted.any(|&id| id == to) {
                    return;
                }
            }
            // The targeted client is the fleet's first (lowest id).
            (AttackerKind::ReplySuppression, Message::Reply { .. }) if to == CLIENT_ID_BASE => {
                return;
            }
            (AttackerKind::DelayedVotes, Message::Commit { .. } | Message::ViewChange { .. }) => {
                let time = network.now() + self.hold_for;
                self.held.push(Delivery {
                    time,
                    from: sender,
                    to,
                    message,
                });
                return;
            }
            (AttackerKind::LyingDonor, Message::StateTransfer { .. }) => {
                forge_state_transfer(&mut message);
            }
            _ => {}
        }
        network.send(sender, to, message);
    }

    /// When the earliest held vote is due (a timer of the event loop).
    pub(super) fn next_release(&self) -> Option<SimTime> {
        self.held.iter().map(|held| held.time).reduce(f64::min)
    }

    /// Sends every held vote whose release time has passed, in insertion
    /// order (canonical deadline form `now >= time`, matching
    /// [`Adversary::next_release`]).
    pub(super) fn release_due(&mut self, now: SimTime, network: &mut SimNetwork<Message>) {
        for held in self.held.extract_if(.., |held| now >= held.time) {
            network.send(held.from, held.to, held.message);
        }
    }
}

/// The [`ByzantineMode::Arbitrary`] behaviour on one outgoing message. The
/// USIG certificate cannot be forged, so the replica can only corrupt the
/// unprotected payload fields.
fn corrupt(mode: ByzantineMode, message: &mut Message, rng: &mut StdRng) {
    if mode != ByzantineMode::Arbitrary {
        return;
    }
    match message {
        Message::Reply { value, .. } => *value = rng.random::<u64>(),
        Message::Commit { batch_digest, .. } => {
            *batch_digest = digest(&rng.random::<u64>().to_le_bytes());
        }
        _ => {}
    }
}

/// The [`AttackerKind::LyingDonor`] transform: inflate the execution
/// frontier and append fabricated digests *without* extending the chain, so
/// the receiver's `fold(chain_base, executed) == log_chain` check exposes
/// the forgery. A subtler donor could keep the chain consistent over a
/// fabricated history, but it cannot reproduce the honest chain value that
/// checkpoint quorums already certified — any adopted forgery diverges at
/// the next checkpoint comparison.
fn forge_state_transfer(transfer: &mut Message) {
    if let Message::StateTransfer {
        value,
        last_executed,
        executed,
        ..
    } = transfer
    {
        *value = value.wrapping_add(0xbad);
        *last_executed += 3;
        for filler in 0..3u64 {
            executed.push(digest(&filler.to_le_bytes()));
        }
    }
}

/// The [`AttackerKind::EquivocatingLeader`] proposal path: alongside the
/// honest PREPARE, certify a *conflicting* batch for the same sequence
/// number with the next USIG counter, and send each half of the membership a
/// different one. The attack stays entirely within the trusted component's
/// limits — two distinct counters certify two distinct digests; only the
/// *binding of one sequence number to two batches* is the lie. Against
/// gap-tolerant acceptance this forms two disjoint commit quorums that share
/// only the attacker (each half credits the leader's PREPARE as a vote);
/// the per-sender FIFO cursor forces every replica to process the
/// lower-counter PREPARE first, after which first-wins rejects the conflict.
pub(super) fn equivocate(
    replica: &mut Replica,
    sequence: u64,
    honest: Message,
    out: &mut StepOutput,
) {
    let Message::Prepare {
        view, ref requests, ..
    } = honest
    else {
        unreachable!("the PREPARE hook is only handed PREPAREs");
    };
    // The conflicting batch reorders the same submitted requests (or, for a
    // singleton, proposes the empty batch): its digest differs, but every
    // request in it was genuinely submitted — if the attack splits the
    // cluster, it is the *agreement* oracle that fires, not validity.
    let conflicting: Vec<Request> = if requests.len() >= 2 {
        requests.iter().rev().cloned().collect()
    } else {
        Vec::new()
    };
    let conflict_digest = batch_digest(&conflicting);
    let conflict_ui = replica.usig.create_ui(conflict_digest);
    out.created_uis += 1;
    let conflict = Message::Prepare {
        view,
        sequence,
        requests: conflicting,
        ui: conflict_ui,
    };
    record_ui_message(replica, conflict_ui.counter, conflict.clone());
    for (index, &member) in replica.membership.iter().enumerate() {
        if member != replica.id {
            let message = if index % 2 == 0 { &honest } else { &conflict };
            out.outgoing.push((member, message.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyDirectory;
    use crate::minbft::timers::replica_on_timer;
    use crate::minbft::{MinBftCluster, MinBftConfig, Operation, ProtocolParams};
    use crate::net::NetworkConfig;

    fn request(id: u64) -> Request {
        Request {
            client: CLIENT_ID_BASE,
            id,
            operation: Operation::Write(id),
        }
    }

    #[test]
    fn an_honest_sender_passes_through_in_order_and_draws_nothing() {
        let mut adversary = Adversary::new(7, 0.5);
        let mut network = SimNetwork::new(NetworkConfig::ideal(), 7);
        let sender = Replica::new(0, vec![0, 1, 2], KeyDirectory::new(), 7);
        let message = |id| Message::Request(request(id));
        let out = StepOutput {
            broadcast: vec![message(1), message(2)],
            outgoing: vec![(2, message(3)), (1, message(4))],
            created_uis: 0,
        };
        let mut untouched = adversary.rng.clone();
        adversary.emit(&sender, out, &[0, 1, 2], &mut network);
        let delivered: Vec<(NodeId, Message)> = std::iter::from_fn(|| network.next_delivery())
            .map(|delivery| (delivery.to, delivery.message))
            .collect();
        let expected = [(1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (1, 4)];
        assert_eq!(delivered, expected.map(|(to, id)| (to, message(id))));
        assert_eq!(adversary.rng.random::<u64>(), untouched.random::<u64>());
    }

    #[test]
    fn the_assignment_ends_with_the_replica_it_names_not_before() {
        let kind = AttackerKind::EquivocatingLeader;
        let mut cluster = MinBftCluster::new(MinBftConfig {
            network: NetworkConfig::ideal(),
            ..MinBftConfig::default()
        });
        // Replica 0 executes sequence 1 alone: 3 is down, and 1 and 2 each
        // miss the other's COMMIT, one vote short of the quorum.
        let client = cluster.add_client();
        cluster.crash_replica(3);
        cluster.partition_network(&[1], &[2]);
        cluster.submit(client, Operation::Write(1));
        cluster.run_until(0.2);
        let frontiers = |cluster: &MinBftCluster| [0, 1, 2].map(|id| cluster.executed_len(id));
        assert_eq!(frontiers(&cluster), [Some(1), Some(0), Some(0)]);

        // Delivery of `Recover` ends the assignment...
        cluster.set_attacker(0, Some(kind));
        assert!(cluster.recover_replica(0));
        assert_eq!(cluster.adversary.attackers.get(&0), None);
        assert!(cluster.replicas[&0].prepare_hook.is_none());
        // ...but not the log of the unique frontier holder: every answer to
        // its pulls lies below its own frontier, so it wipes nothing.
        let delivered = cluster.network_stats().delivered;
        cluster.run_until(0.4);
        assert!(cluster.network_stats().delivered > delivered);
        assert!(cluster.replicas[&0].pending_rebuild);
        assert_eq!(frontiers(&cluster), [Some(1), Some(0), Some(0)]);
        // Once the peers reach its frontier (the view change the stalled
        // client triggers re-proposes its certificate) a transfer covers
        // it, and it wipes and adopts.
        cluster.heal_network();
        cluster.run_until_quiet(10.0);
        assert!(!cluster.replicas[&0].pending_rebuild);
        assert_eq!(frontiers(&cluster), [Some(1); 3]);
        assert!(cluster.logs_are_consistent());

        cluster.set_attacker(1, Some(kind));
        cluster.evict_replica(1);
        assert!(cluster.adversary.attackers.is_empty());
    }

    #[test]
    fn two_batches_in_one_step_take_four_consecutive_counters() {
        let mut leader = Replica::new(0, vec![0, 1, 2, 3], KeyDirectory::new(), 7);
        leader.prepare_hook = Some(equivocate);
        leader.pending.extend((0..4).map(request));
        let params = ProtocolParams {
            checkpoint_period: 0,
            batch_size: 2,
            batch_delay: 0.0,
            pipeline_window: 0,
        };
        let n = leader.usig.last_counter() + 1;
        let mut out = StepOutput::default();
        assert!(!replica_on_timer(&mut leader, 0.0, &params, 0.5, &mut out));
        // Odd member indices get the conflict, even ones the honest PREPARE;
        // per batch the honest certificate comes first: n, n+1, then n+2, n+3.
        let sent: Vec<(NodeId, u64, u64)> = (out.outgoing.iter())
            .map(|(to, message)| match message {
                Message::Prepare { sequence, ui, .. } => (*to, *sequence, ui.counter),
                other => panic!("not a PREPARE: {other:?}"),
            })
            .collect();
        let batch = |sequence, honest| {
            [
                (1, sequence, honest + 1),
                (2, sequence, honest),
                (3, sequence, honest + 1),
            ]
        };
        assert_eq!(sent, [batch(1, n), batch(2, n + 2)].concat());
        assert_eq!((out.created_uis, out.broadcast.len()), (4, 0));
    }
}
