//! The per-node decision makers under evaluation: a [`NodeStrategy`] is what
//! a control plane holds per node, TOLERANCE's belief controller or a
//! baseline, built by [`StrategyKind::build_node_strategy`]. The system
//! controller is the plane's own (TOLERANCE runs it; the baselines do not).

use crate::baselines::{BaselineKind, RecoveryStrategy};
use crate::controller::NodeController;
use crate::node_model::{NodeAction, NodeModel};
use crate::recovery::{ThresholdStrategy, PAPER_RECOVERY_THRESHOLD};
use serde::{Deserialize, Serialize};

/// Which control strategy a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// The TOLERANCE architecture: belief-threshold recovery (Theorem 1)
    /// plus the Algorithm 2 replication strategy.
    Tolerance,
    /// One of the baseline strategies of Section VIII-B.
    Baseline(BaselineKind),
}

impl StrategyKind {
    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Tolerance => "tolerance",
            StrategyKind::Baseline(kind) => kind.name(),
        }
    }

    /// The four strategies compared in Table 7, in the paper's order.
    pub fn paper_set() -> [StrategyKind; 4] {
        [
            StrategyKind::Tolerance,
            StrategyKind::Baseline(BaselineKind::NoRecovery),
            StrategyKind::Baseline(BaselineKind::Periodic),
            StrategyKind::Baseline(BaselineKind::PeriodicAdaptive),
        ]
    }

    /// Builds the per-node decision maker for this strategy over the node's
    /// POMDP `model` and the BTR period `delta_r` (`None` = `Δ_R = ∞`):
    /// TOLERANCE's is [`NodeStrategy::tolerance`]; a baseline's schedule
    /// starts `initial_phase` steps into its period, and `expected_alerts`,
    /// the healthy-state mean alert count, is PERIODIC-ADAPTIVE's burst
    /// reference.
    pub fn build_node_strategy(
        self,
        model: NodeModel,
        expected_alerts: f64,
        delta_r: Option<u32>,
        initial_phase: u32,
    ) -> NodeStrategy {
        match self {
            StrategyKind::Tolerance => NodeStrategy::tolerance(model, delta_r),
            StrategyKind::Baseline(kind) => NodeStrategy::Baseline(
                RecoveryStrategy::new(kind, delta_r, expected_alerts)
                    .with_initial_phase(initial_phase),
            ),
        }
    }
}

/// The per-node decision maker of a scenario: either a TOLERANCE belief
/// controller or a baseline recovery schedule, behind one uniform API.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeStrategy {
    /// The belief-threshold node controller (Theorem 1), boxed: its node
    /// model dwarfs the baseline variant.
    Tolerance(Box<NodeController>),
    /// A baseline recovery schedule (Section VIII-B).
    Baseline(RecoveryStrategy),
}

impl NodeStrategy {
    /// The TOLERANCE node strategy, its one constructor: a belief controller
    /// over `model` that recovers at [`PAPER_RECOVERY_THRESHOLD`] and at the
    /// latest every `delta_r` steps (`None` = `Δ_R = ∞`).
    pub fn tolerance(model: NodeModel, delta_r: Option<u32>) -> Self {
        let strategy = ThresholdStrategy::new(vec![PAPER_RECOVERY_THRESHOLD], delta_r)
            .expect("the paper's threshold lies in [0, 1]");
        NodeStrategy::Tolerance(Box::new(NodeController::new(model, strategy)))
    }

    /// Processes one time-step observed as the weighted IDS alert events
    /// since the last decision ([`NodeController::observe_events`]; a sample
    /// is one event) and returns the recovery decision; a baseline decides by
    /// its schedule alone.
    pub fn observe_events(&mut self, events: &[u64]) -> NodeAction {
        match self {
            NodeStrategy::Tolerance(controller) => controller.observe_events(events),
            NodeStrategy::Baseline(baseline) => baseline.decide(),
        }
    }

    /// The compromise belief, if this strategy tracks one.
    pub fn belief(&self) -> Option<f64> {
        match self {
            NodeStrategy::Tolerance(controller) => Some(controller.belief()),
            NodeStrategy::Baseline(_) => None,
        }
    }

    /// The belief the latest recovery request was decided on (`belief()`
    /// already reads the post-recovery prior); baselines track none.
    pub fn request_belief(&self) -> Option<f64> {
        match self {
            NodeStrategy::Tolerance(controller) => Some(controller.last_request_belief()),
            NodeStrategy::Baseline(_) => None,
        }
    }

    /// Whether the strategy's replication heuristic wants an extra node
    /// given this step's alert count (PERIODIC-ADAPTIVE only).
    pub fn wants_additional_node(&self, observed_alerts: f64) -> bool {
        match self {
            NodeStrategy::Tolerance(_) => false,
            NodeStrategy::Baseline(baseline) => baseline.wants_additional_node(observed_alerts),
        }
    }

    /// Resets the strategy after an externally triggered recovery.
    pub fn notify_recovered(&mut self) {
        match self {
            NodeStrategy::Tolerance(controller) => controller.notify_recovered(),
            NodeStrategy::Baseline(baseline) => baseline.notify_recovered(),
        }
    }

    /// Re-arms the strategy after its recovery request was deferred, so it
    /// requests again on the next step.
    pub fn notify_deferred(&mut self) {
        match self {
            NodeStrategy::Tolerance(controller) => controller.notify_deferred(),
            NodeStrategy::Baseline(baseline) => baseline.notify_deferred(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_model::NodeParameters;
    use crate::observation::ObservationModel;

    fn model() -> NodeModel {
        NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap()
    }

    #[test]
    fn paper_set_matches_table7() {
        let names: Vec<&str> = StrategyKind::paper_set().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["tolerance", "no-recovery", "periodic", "periodic-adaptive"]
        );
    }

    #[test]
    fn tolerance_builds_a_belief_controller() {
        let strategy = StrategyKind::Tolerance.build_node_strategy(model(), 1.0, None, 0);
        assert!(matches!(strategy, NodeStrategy::Tolerance(_)));
        assert!(strategy.belief().is_some());
        assert!(!strategy.wants_additional_node(100.0));
    }

    #[test]
    fn tolerance_recovers_on_sustained_alerts_and_baseline_on_schedule() {
        let mut tolerance = StrategyKind::Tolerance.build_node_strategy(model(), 1.0, None, 0);
        let recovered = (0..20).any(|_| tolerance.observe_events(&[10]) == NodeAction::Recover);
        assert!(
            recovered,
            "sustained max alerts must trigger the controller"
        );

        let mut periodic = StrategyKind::Baseline(BaselineKind::Periodic).build_node_strategy(
            model(),
            1.0,
            Some(5),
            0,
        );
        let decisions: Vec<NodeAction> = (0..10).map(|_| periodic.observe_events(&[10])).collect();
        assert_eq!(
            decisions
                .iter()
                .filter(|d| **d == NodeAction::Recover)
                .count(),
            2
        );
        assert_eq!(periodic.belief(), None);
        assert_eq!(periodic.request_belief(), None);
    }

    #[test]
    fn adaptive_baseline_wants_nodes_on_bursts() {
        let adaptive = StrategyKind::Baseline(BaselineKind::PeriodicAdaptive).build_node_strategy(
            model(),
            2.0,
            Some(15),
            0,
        );
        assert!(!adaptive.wants_additional_node(3.0));
        assert!(adaptive.wants_additional_node(4.0));
    }

    #[test]
    fn btr_thresholds_span_the_period() {
        let mut strategy = StrategyKind::Tolerance.build_node_strategy(model(), 1.0, Some(5), 0);
        // With quiet observations the BTR constraint forces a recovery at
        // the period boundary.
        let recoveries = (0..25)
            .filter(|_| strategy.observe_events(&[0]) == NodeAction::Recover)
            .count();
        assert!(
            recoveries >= 4,
            "BTR must force ~1 recovery per 5 steps, got {recoveries}"
        );
    }

    #[test]
    fn notify_recovered_resets_both_variants() {
        let mut tolerance = StrategyKind::Tolerance.build_node_strategy(model(), 1.0, None, 0);
        for _ in 0..5 {
            tolerance.observe_events(&[10]);
        }
        tolerance.notify_recovered();
        assert!((tolerance.belief().unwrap() - 0.1).abs() < 1e-9);

        let mut periodic = StrategyKind::Baseline(BaselineKind::Periodic).build_node_strategy(
            model(),
            1.0,
            Some(3),
            0,
        );
        periodic.observe_events(&[0]);
        periodic.notify_recovered();
        assert_eq!(periodic.observe_events(&[0]), NodeAction::Wait);
        assert_eq!(periodic.observe_events(&[0]), NodeAction::Wait);
        assert_eq!(periodic.observe_events(&[0]), NodeAction::Recover);
    }
}
