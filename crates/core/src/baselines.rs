//! The baseline control strategies of Section VIII-B.
//!
//! The paper compares TOLERANCE against the strategies used by
//! state-of-the-art intrusion-tolerant systems:
//!
//! * **NO-RECOVERY** — never recovers and never adds nodes (RAMPART,
//!   SECURE-RING).
//! * **PERIODIC** — recovers every `Δ_R` steps, never adds nodes (PBFT,
//!   VM-FIT, WORM-IT, PRRW, SCIT, BFT-SMaRt, UpRight, ...).
//! * **PERIODIC-ADAPTIVE** — recovers every `Δ_R` steps and adds a node when
//!   the observed alert count exceeds twice its mean (SITAR, ITSI, ITUA).
//!
//! A baseline decides in [`NodeAction`]s, like TOLERANCE's
//! [`crate::controller::NodeController`], so a control plane holds either
//! behind one [`crate::runtime::NodeStrategy`]. Baselines run with the
//! system controller off: their replication behaviour is
//! PERIODIC-ADAPTIVE's node-addition wish, which the plane's tick turns into
//! a JOIN.

use crate::node_model::NodeAction;
use serde::{Deserialize, Serialize};

/// Which baseline strategy to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Never recover, never add nodes.
    NoRecovery,
    /// Recover every `Δ_R` steps, never add nodes.
    Periodic,
    /// Recover every `Δ_R` steps and add a node on alert bursts.
    PeriodicAdaptive,
}

impl BaselineKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::NoRecovery => "no-recovery",
            BaselineKind::Periodic => "periodic",
            BaselineKind::PeriodicAdaptive => "periodic-adaptive",
        }
    }
}

/// A baseline per-node recovery strategy with its replication heuristic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStrategy {
    kind: BaselineKind,
    /// The period `Δ_R`; `None` represents `Δ_R = ∞`.
    delta_r: Option<u32>,
    /// Mean alert count `E[O_t]` used by the adaptive replication heuristic.
    expected_alerts: f64,
    steps_since_recovery: u32,
}

impl RecoveryStrategy {
    /// Creates a baseline strategy.
    pub fn new(kind: BaselineKind, delta_r: Option<u32>, expected_alerts: f64) -> Self {
        RecoveryStrategy {
            kind,
            delta_r,
            expected_alerts,
            steps_since_recovery: 0,
        }
    }

    /// Offsets the position within the recovery period, staggering periodic
    /// recoveries across nodes (how proactive-recovery systems schedule
    /// their rejuvenation windows).
    pub(crate) fn with_initial_phase(mut self, offset: u32) -> Self {
        if let Some(period) = self.delta_r {
            if period > 0 {
                self.steps_since_recovery = offset % period;
            }
        }
        self
    }

    /// The per-step recovery decision of the baseline. Baselines ignore the
    /// alert count for recovery purposes — they are driven purely by time —
    /// which is exactly why their time-to-recovery is an order of magnitude
    /// larger than TOLERANCE's (Fig. 12).
    pub fn decide(&mut self) -> NodeAction {
        match self.kind {
            BaselineKind::NoRecovery => NodeAction::Wait,
            BaselineKind::Periodic | BaselineKind::PeriodicAdaptive => match self.delta_r {
                Some(period) if period > 0 && self.steps_since_recovery + 1 >= period => {
                    self.steps_since_recovery = 0;
                    NodeAction::Recover
                }
                _ => {
                    self.steps_since_recovery += 1;
                    NodeAction::Wait
                }
            },
        }
    }

    /// Whether the baseline's replication heuristic wants to add a node given
    /// this step's observed alert count (`o_t >= 2 E[O_t]`, Section VIII-B).
    pub fn wants_additional_node(&self, observed_alerts: f64) -> bool {
        match self.kind {
            BaselineKind::PeriodicAdaptive => observed_alerts >= 2.0 * self.expected_alerts,
            BaselineKind::NoRecovery | BaselineKind::Periodic => false,
        }
    }

    /// Resets the period position (e.g. after an externally forced recovery).
    pub fn notify_recovered(&mut self) {
        self.steps_since_recovery = 0;
    }

    /// Re-arms the schedule after its recovery request was deferred (it lost
    /// the k-slot budget): the baseline is due again on the next step.
    pub fn notify_deferred(&mut self) {
        if let Some(period) = self.delta_r {
            self.steps_since_recovery = period.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper() {
        assert_eq!(BaselineKind::NoRecovery.name(), "no-recovery");
        assert_eq!(BaselineKind::Periodic.name(), "periodic");
        assert_eq!(BaselineKind::PeriodicAdaptive.name(), "periodic-adaptive");
    }

    #[test]
    fn no_recovery_never_recovers_or_adds() {
        let mut strategy = RecoveryStrategy::new(BaselineKind::NoRecovery, Some(5), 3.0);
        for _ in 0..100 {
            assert_eq!(strategy.decide(), NodeAction::Wait);
        }
        assert!(!strategy.wants_additional_node(100.0));
    }

    #[test]
    fn periodic_recovers_every_delta_r_steps() {
        let mut strategy = RecoveryStrategy::new(BaselineKind::Periodic, Some(5), 3.0);
        let decisions: Vec<NodeAction> = (0..15).map(|_| strategy.decide()).collect();
        let recoveries = decisions
            .iter()
            .filter(|d| **d == NodeAction::Recover)
            .count();
        assert_eq!(recoveries, 3, "one recovery per 5 steps over 15 steps");
        // Recoveries are evenly spaced.
        assert_eq!(decisions[4], NodeAction::Recover);
        assert_eq!(decisions[9], NodeAction::Recover);
        assert!(
            !strategy.wants_additional_node(100.0),
            "periodic never adds nodes"
        );
    }

    #[test]
    fn periodic_with_infinite_period_degenerates_to_no_recovery() {
        let mut strategy = RecoveryStrategy::new(BaselineKind::Periodic, None, 3.0);
        for _ in 0..50 {
            assert_eq!(strategy.decide(), NodeAction::Wait);
        }
    }

    #[test]
    fn adaptive_adds_nodes_on_alert_bursts() {
        let strategy = RecoveryStrategy::new(BaselineKind::PeriodicAdaptive, Some(5), 3.0);
        assert!(!strategy.wants_additional_node(5.0));
        assert!(strategy.wants_additional_node(6.0));
        assert!(strategy.wants_additional_node(20.0));
    }

    #[test]
    fn notify_recovered_resets_the_period() {
        let mut strategy = RecoveryStrategy::new(BaselineKind::Periodic, Some(3), 3.0);
        strategy.decide();
        strategy.decide();
        strategy.notify_recovered();
        // After the reset it takes a full period again before recovering.
        assert_eq!(strategy.decide(), NodeAction::Wait);
        assert_eq!(strategy.decide(), NodeAction::Wait);
        assert_eq!(strategy.decide(), NodeAction::Recover);
    }

    #[test]
    fn a_deferred_periodic_request_fires_on_the_next_step() {
        let mut strategy = RecoveryStrategy::new(BaselineKind::Periodic, Some(5), 3.0);
        let first = (1..=5).find(|_| strategy.decide() == NodeAction::Recover);
        assert_eq!(first, Some(5));
        strategy.notify_deferred();
        // Due again at once, not Δ_R steps later; a granted recovery then
        // restarts the period.
        assert_eq!(strategy.decide(), NodeAction::Recover);
        assert_eq!(strategy.decide(), NodeAction::Wait);
    }
}
