//! The adversary zoo: protocol-aware attackers × network conditions.
//!
//! This module turns the consensus layer's [`AttackerKind`] strategies into
//! simnet chaos. Each cell of the matrix pairs one attacker variant with one
//! network condition and runs as an ordinary
//! [`ShardedSimnetScenario`](crate::simnet::ShardedSimnetScenario) under the
//! full oracle suite:
//!
//! * **Attacker axis** — the five protocol-aware strategies of
//!   [`AttackerKind::ALL`] (equivocating leader, vote withholding, delayed
//!   votes, lying state-transfer donor, client-reply suppression), adopted
//!   via [`FaultEvent::AdoptAttacker`](crate::simnet::schedule::FaultEvent)
//!   schedule events. Unlike the blunt `ByzantineFlip`, attacker replicas
//!   keep speaking the protocol — their USIG still signs honestly — so they
//!   probe MinBFT's structural defenses (counter-consecutive acceptance,
//!   first-wins conflict resolution, chain-validated state transfer) rather
//!   than its crash handling.
//! * **Network axis** — [`NetworkCondition::Sync`] (the bounded-delay base
//!   profile), [`NetworkCondition::Gst`] (partial synchrony: arbitrary
//!   delay/reorder/loss before a global stabilization time, bounded delay
//!   after, checked by the liveness-after-GST oracle) and
//!   [`NetworkCondition::Storm`] (generated loss/delay storms and
//!   partitions on top of the attacker).
//!
//! Each variant also carries a distinct IDS observation signature: a
//! protocol-aware attacker is *quieter* than a smash-and-grab intrusion, so
//! its per-variant `attacker_ids_lambda` degrades the compromised alert
//! distribution toward the healthy one (via
//! [`ObservationModel::degrade`]) — stealthier attacks take the node
//! controllers longer to detect, exactly the trade-off the paper's
//! Theorem 1 threshold navigates.

use crate::error::Result;
use crate::observation::ObservationModel;
use crate::simnet::schedule::{FaultKind, ScheduleConfig};
use crate::simnet::sharded::ShardedScheduleConfig;
use tolerance_consensus::AttackerKind;

/// IDS degradation of a [`FaultEvent::ByzantineFlip`]: a flipped replica
/// misbehaves at the message layer without a full compromise footprint, so
/// its alert signature sits well toward healthy — but it *does* perturb the
/// observation stream (it is not invisible to the IDS).
///
/// [`FaultEvent::ByzantineFlip`]: crate::simnet::schedule::FaultEvent
pub(crate) const BYZANTINE_FLIP_IDS_LAMBDA: f64 = 0.6;

/// The IDS-signature degradation λ of an attacker variant: `0.0` keeps the
/// full compromised alert distribution, `1.0` would be indistinguishable
/// from healthy. The more surgical the attack, the quieter its signature.
pub(crate) fn attacker_ids_lambda(kind: AttackerKind) -> f64 {
    match kind {
        // Equivocation forges whole batches — the loudest of the zoo.
        AttackerKind::EquivocatingLeader => 0.15,
        // Forged state-transfer frontiers leave corrupted-payload traces.
        AttackerKind::LyingDonor => 0.25,
        // Withholding is an omission, but a persistent, targeted one.
        AttackerKind::VoteWithholding => 0.3,
        // Delays look like congestion most of the time.
        AttackerKind::DelayedVotes => 0.45,
        // Dropping replies to one client is the stealthiest signal here.
        AttackerKind::ReplySuppression => 0.55,
    }
}

/// The degraded observation models the harnesses sample compromised-state
/// alerts from, keyed by `f64::to_bits` of the λ (exact-bit lookup keeps
/// the mapping deterministic). One entry per distinct λ of the zoo plus
/// [`BYZANTINE_FLIP_IDS_LAMBDA`].
pub(crate) fn degraded_model_table(
    base: &ObservationModel,
) -> Result<Vec<(u64, ObservationModel)>> {
    let mut table: Vec<(u64, ObservationModel)> = Vec::new();
    for lambda in AttackerKind::ALL
        .iter()
        .map(|&kind| attacker_ids_lambda(kind))
        .chain([BYZANTINE_FLIP_IDS_LAMBDA])
    {
        let bits = lambda.to_bits();
        if table.iter().all(|&(existing, _)| existing != bits) {
            table.push((bits, base.degrade(lambda)?));
        }
    }
    Ok(table)
}

/// The observation model for a compromised replica with signature
/// degradation `lambda` (the base model when λ is 0 or unknown — unknown
/// λs cannot arise from schedule events, but scripted supervisors stay
/// well-defined).
pub(crate) fn degraded_model<'a>(
    table: &'a [(u64, ObservationModel)],
    base: &'a ObservationModel,
    lambda: f64,
) -> &'a ObservationModel {
    if lambda <= 0.0 {
        return base;
    }
    table
        .iter()
        .find(|&&(bits, _)| bits == lambda.to_bits())
        .map(|(_, model)| model)
        .unwrap_or(base)
}

/// The network-condition axis of the adversary matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkCondition {
    /// Bounded delay throughout (the base profile).
    Sync,
    /// Partial synchrony: the asynchronous profile until GST, bounded delay
    /// after — the liveness-after-GST oracle is active.
    Gst,
    /// Generated loss/delay storms and partitions alongside the attacker.
    Storm,
}

impl NetworkCondition {
    /// Every condition, in a stable order (the matrix axis).
    pub const ALL: [NetworkCondition; 3] = [
        NetworkCondition::Sync,
        NetworkCondition::Gst,
        NetworkCondition::Storm,
    ];

    /// A stable kebab-case name (scenario names).
    pub fn name(&self) -> &'static str {
        match self {
            NetworkCondition::Sync => "sync",
            NetworkCondition::Gst => "gst",
            NetworkCondition::Storm => "storm",
        }
    }
}

/// The single-group configuration of one matrix cell: the generator draws
/// [`FaultKind::AdoptAttacker`] events restricted to `attacker` (plus
/// client bursts, and network faults under [`NetworkCondition::Storm`]).
pub fn adversary_config(attacker: AttackerKind, condition: NetworkCondition) -> ScheduleConfig {
    let mut enabled = vec![FaultKind::AdoptAttacker, FaultKind::ClientBurst];
    let mut config = ScheduleConfig {
        horizon: 28,
        intensity: 0.5,
        attackers: vec![attacker],
        ..ScheduleConfig::default()
    };
    match condition {
        NetworkCondition::Sync => {}
        NetworkCondition::Gst => {
            config.gst = Some(12);
            config.horizon = 32;
        }
        NetworkCondition::Storm => {
            enabled.extend([
                FaultKind::Partition,
                FaultKind::LossStorm,
                FaultKind::DelayStorm,
            ]);
        }
    }
    config.enabled = enabled;
    config
}

/// The two-shard configuration of one matrix cell: the same per-shard
/// chaos as [`adversary_config`] plus routed clients and cross-shard
/// MultiPuts, so attacker effects are checked against the routing and
/// atomicity oracles too.
pub fn adversary_sharded_config(
    attacker: AttackerKind,
    condition: NetworkCondition,
) -> ShardedScheduleConfig {
    let mut base = adversary_config(attacker, condition);
    // Sharded steps cost S× the work; keep cells CI-sized.
    base.horizon = 20;
    if condition == NetworkCondition::Gst {
        base.gst = Some(8);
        base.horizon = 24;
    }
    ShardedScheduleConfig {
        shards: 2,
        base,
        ..ShardedScheduleConfig::default()
    }
}

/// Every `(attacker, condition)` cell, attacker-major — the iteration
/// order of the CI sweep.
pub fn adversary_matrix() -> Vec<(AttackerKind, NetworkCondition)> {
    let mut cells = Vec::with_capacity(AttackerKind::ALL.len() * NetworkCondition::ALL.len());
    for &attacker in &AttackerKind::ALL {
        for &condition in &NetworkCondition::ALL {
            cells.push((attacker, condition));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambdas_are_valid_and_distinct() {
        let mut seen = Vec::new();
        for &kind in &AttackerKind::ALL {
            let lambda = attacker_ids_lambda(kind);
            assert!((0.0..1.0).contains(&lambda), "{kind:?}: {lambda}");
            assert!(!seen.contains(&lambda.to_bits()), "{kind:?} duplicates λ");
            seen.push(lambda.to_bits());
        }
        assert!((0.0..1.0).contains(&BYZANTINE_FLIP_IDS_LAMBDA));
    }

    #[test]
    fn degraded_table_covers_every_variant() {
        let base = ObservationModel::paper_default();
        let table = degraded_model_table(&base).unwrap();
        assert_eq!(table.len(), 6); // five attacker λs + the flip λ
        for &kind in &AttackerKind::ALL {
            let lambda = attacker_ids_lambda(kind);
            let model = degraded_model(&table, &base, lambda);
            // A degraded signature is strictly less detectable than the
            // full compromise signature, but still distinguishable.
            assert!(model.detection_divergence().unwrap() < base.detection_divergence().unwrap());
            assert!(model.detection_divergence().unwrap() > 0.0);
        }
        // λ = 0 falls through to the base model.
        assert!(std::ptr::eq(degraded_model(&table, &base, 0.0), &base));
    }

    #[test]
    fn matrix_covers_every_cell_once() {
        let cells = adversary_matrix();
        assert_eq!(cells.len(), 15);
        let mut dedup = cells.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), cells.len());
    }

    #[test]
    fn gst_configs_schedule_a_stabilization_step() {
        for &attacker in &AttackerKind::ALL {
            let single = adversary_config(attacker, NetworkCondition::Gst);
            assert!(single.gst.is_some());
            assert!(single.gst.unwrap() + single.post_gst_liveness_steps < single.horizon);
            let sharded = adversary_sharded_config(attacker, NetworkCondition::Gst);
            assert!(sharded.base.gst.is_some());
            assert!(
                sharded.base.gst.unwrap() + sharded.base.post_gst_liveness_steps
                    < sharded.base.horizon
            );
        }
    }
}
